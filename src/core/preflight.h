// Package preflight: validates a `.dgpkg` end to end — header, schema,
// config, schema<->config consistency (analyze_model: config validation and
// the generation trace), the generation tape, and the weight section's shape
// census against the expected parameter layout — WITHOUT constructing a
// model or reading a single float of payload. This is what
// GenerationService runs before every load/hot-reload (refusing the swap on
// failure) and what `dgcli lint --package` reports.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/tape.h"
#include "core/doppelganger.h"
#include "data/types.h"
#include "nn/serialize.h"

namespace dg::core {

struct PackagePreflight {
  /// No error-severity diagnostics: the package is safe to load.
  bool ok = false;
  /// The magic/schema/config sections parsed (the weight census may still
  /// have failed). When false, `schema`/`config` are default-constructed.
  bool header_ok = false;
  std::vector<analysis::Diagnostic> diagnostics;
  data::Schema schema;
  DoppelGangerConfig config;
  /// Shape of every matrix in the weight section (header-only read).
  std::vector<nn::MatrixShape> weight_matrices;
  /// Generation-tape lowering census (analysis/tape.h): instruction and
  /// fusion-group counts, arena peak, and whether the verifier passed. Only
  /// populated when the header + analysis were clean enough to lower.
  analysis::TapeSummary tape;
};

/// Never throws on bad input — all findings come back as diagnostics.
PackagePreflight preflight_package(std::istream& is);

PackagePreflight preflight_package_file(const std::string& path);

/// Renders diagnostics into the multi-line message used when a preflight
/// failure must surface as an exception (fit(), service construction).
std::string render_diagnostics(
    std::span<const analysis::Diagnostic> diagnostics);

}  // namespace dg::core
