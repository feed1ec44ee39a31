// Diagnostics vocabulary of the static analyzer: every check — symbolic
// shape rules, differentiability-class and adjoint audits, gradient-slot
// coverage, tape verification, package preflight — reports through one
// structured record so the CLI, the serving runtime, and tests consume a
// single format. Mirrors the attribution style of nn/check.h: each finding
// names the offending op (or parameter) and a first-parent graph path like
// "matmul <- concat_cols <- leaf(attr_gen.l0.w)".
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace dg::analysis {

enum class Severity { kError, kWarning, kNote };

const char* to_string(Severity s);

struct Diagnostic {
  Severity severity = Severity::kError;
  /// Stable machine-readable class, kebab-case: "shape-mismatch",
  /// "trace-error", "no-double-backward", "adjoint-shape",
  /// "grad-slot-undefined", "determinism-class", "determinism-unverified",
  /// "config-invalid", "aux-ignored", "weight-shape", "frozen-params",
  /// "package-parse", and the tape verifier's "tape-*" classes.
  std::string code;
  std::string message;
  /// Name of the op the finding attaches to, rendered from its row (or a
  /// parameter or config field name).
  std::string op;
  /// Graph-path attribution when the finding arose inside a symbolic walk.
  std::string path;

  bool operator==(const Diagnostic&) const = default;
};

bool has_errors(std::span<const Diagnostic> diags);

/// One-line-per-finding human rendering: "[error] shape-mismatch at matmul
/// (path: ...): message".
void print_human(std::ostream& os, std::span<const Diagnostic> diags);

/// JSON array of {"severity","code","message","op","path"} objects — the
/// `dgcli lint --json` payload. Self-contained (no serve/json dependency:
/// analysis sits below the serving stack).
std::string to_json(std::span<const Diagnostic> diags);

}  // namespace dg::analysis
