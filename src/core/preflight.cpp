#include "core/preflight.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/model.h"
#include "core/package.h"
#include "data/io.h"

namespace dg::core {

namespace {

using analysis::Diagnostic;
using analysis::Severity;

void fail(std::vector<Diagnostic>& out, std::string code, std::string msg,
          std::string where) {
  out.push_back({Severity::kError, std::move(code), std::move(msg),
                 std::move(where), {}});
}

}  // namespace

PackagePreflight preflight_package(std::istream& is) {
  PackagePreflight out;

  // ---- header: magic + schema section ----
  std::string line;
  if (!std::getline(is, line) || line != "doppelganger-package v1") {
    fail(out.diagnostics, "package-parse",
         "not a doppelganger package (bad magic line)", "package");
    return out;
  }
  std::size_t schema_bytes = 0;
  {
    std::getline(is, line);
    std::istringstream ls(line);
    std::string key;
    ls >> key >> schema_bytes;
    if (key != "schema_bytes" || schema_bytes == 0) {
      fail(out.diagnostics, "package-parse", "missing schema section",
           "package.schema");
      return out;
    }
  }
  std::string schema_text(schema_bytes, '\0');
  is.read(schema_text.data(), static_cast<std::streamsize>(schema_bytes));
  if (!is) {
    fail(out.diagnostics, "package-parse", "truncated schema section",
         "package.schema");
    return out;
  }
  try {
    std::istringstream schema_ss(schema_text);
    out.schema = data::load_schema(schema_ss);
  } catch (const std::exception& e) {
    fail(out.diagnostics, "package-parse",
         std::string("schema does not parse: ") + e.what(), "package.schema");
    return out;
  }

  // ---- config section ----
  try {
    out.config = load_config(is);
  } catch (const std::exception& e) {
    fail(out.diagnostics, "package-parse",
         std::string("config does not parse: ") + e.what(), "package.config");
    return out;
  }
  out.header_ok = true;
  out.weights_at = is.tellg();

  // ---- schema <-> config consistency (static model analysis) ----
  const analysis::ModelAnalysis analysis =
      analysis::analyze_model(out.schema, out.config);
  for (const Diagnostic& d : analysis.diagnostics) {
    out.diagnostics.push_back(d);
  }

  // ---- generation tape: lower + verify, so a package whose serving tape
  // would be rejected (or fall back to autograd) is flagged before load ----
  if (!analysis::has_errors(analysis.diagnostics)) {
    auto tape_report = std::make_shared<const analysis::TapeReport>(
        analysis::build_generation_tape(out.schema, out.config));
    out.tape = analysis::summarize_tape(*tape_report);
    for (const Diagnostic& d : tape_report->diagnostics) {
      out.diagnostics.push_back(d);
    }
    if (tape_report->ok()) out.tape_report = std::move(tape_report);
  }

  // ---- weight section: header-only shape census ----
  try {
    out.weight_matrices = nn::peek_matrix_shapes(is);
  } catch (const std::exception& e) {
    fail(out.diagnostics, "package-parse",
         std::string("weight section unreadable: ") + e.what(),
         "package.weights");
    out.ok = false;
    return out;
  }

  if (!analysis.parameters.empty() || analysis.ok()) {
    const auto& expected = analysis.parameters;
    if (out.weight_matrices.size() != expected.size()) {
      fail(out.diagnostics, "weight-shape",
           "package carries " + std::to_string(out.weight_matrices.size()) +
               " matrices; schema + config imply " +
               std::to_string(expected.size()) +
               " (did use_minmax_generator / use_aux_discriminator or layer "
               "counts change?)",
           "package.weights");
    } else {
      for (size_t i = 0; i < expected.size(); ++i) {
        const analysis::ParamShape& e = expected[i];
        const nn::MatrixShape& m = out.weight_matrices[i];
        if (m.rows != e.rows || m.cols != e.cols) {
          fail(out.diagnostics, "weight-shape",
               "matrix " + std::to_string(i) + " is [" +
                   std::to_string(m.rows) + ", " + std::to_string(m.cols) +
                   "]; expected [" + std::to_string(e.rows) + ", " +
                   std::to_string(e.cols) + "]",
               e.name);
        }
      }
    }
  }

  out.ok = !analysis::has_errors(out.diagnostics);
  return out;
}

PackagePreflight preflight_package_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    PackagePreflight out;
    fail(out.diagnostics, "package-parse", "cannot open " + path, "package");
    return out;
  }
  return preflight_package(is);
}

std::string render_diagnostics(
    std::span<const analysis::Diagnostic> diagnostics) {
  std::ostringstream os;
  analysis::print_human(os, diagnostics);
  return os.str();
}

}  // namespace dg::core
