// Package preflight: validates a `.dgpkg` end to end — header, schema,
// config, schema<->config consistency (analyze_model: config validation and
// the generation trace), the generation tape, and the weight section's shape
// census against the expected parameter layout — WITHOUT constructing a
// model or reading a single float of payload. It is the only reader of a
// package's header: load_package (core/package.h) runs it on every load, so
// GenerationService's loads and hot reloads and `dgcli generate` refuse
// what it refuses, and `dgcli lint --package` reports it.
#pragma once

#include <ios>
#include <iosfwd>
#include <memory>
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
  /// Stream position of the weight section, once `header_ok`: where
  /// load_package reads the floats from.
  std::streampos weights_at = -1;
  /// Shape of every matrix in the weight section (header-only read).
  std::vector<nn::MatrixShape> weight_matrices;
  /// Generation-tape lowering census (analysis/tape.h): instruction count,
  /// arena peak, and whether the verifier passed. Only
  /// populated when the header + analysis were clean enough to lower.
  analysis::TapeSummary tape;
  /// The lowered tape itself, when it verified. load_package hands it to
  /// the model it builds, so the tape of a loaded package is lowered once,
  /// here, and every executor of that model is built from this report.
  std::shared_ptr<const analysis::TapeReport> tape_report;
};

/// Never throws on bad input — all findings come back as diagnostics.
PackagePreflight preflight_package(std::istream& is);

PackagePreflight preflight_package_file(const std::string& path);

/// Renders diagnostics into the multi-line message used when a preflight
/// failure must surface as an exception (fit(), service construction).
std::string render_diagnostics(
    std::span<const analysis::Diagnostic> diagnostics);

}  // namespace dg::core
