#include "analysis/diag.h"

#include <ostream>

#include "obs/json_string.h"

namespace dg::analysis {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

bool has_errors(std::span<const Diagnostic> diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

void print_human(std::ostream& os, std::span<const Diagnostic> diags) {
  for (const Diagnostic& d : diags) {
    os << '[' << to_string(d.severity) << "] " << d.code;
    if (!d.op.empty()) os << " at " << d.op;
    if (!d.path.empty()) os << " (path: " << d.path << ')';
    os << ": " << d.message << '\n';
  }
}

std::string to_json(std::span<const Diagnostic> diags) {
  std::string out = "[";
  bool first = true;
  for (const Diagnostic& d : diags) {
    if (!first) out += ',';
    first = false;
    out += "{\"severity\":";
    obs::append_json_string(out, to_string(d.severity));
    out += ",\"code\":";
    obs::append_json_string(out, d.code);
    out += ",\"message\":";
    obs::append_json_string(out, d.message);
    out += ",\"op\":";
    obs::append_json_string(out, d.op);
    out += ",\"path\":";
    obs::append_json_string(out, d.path);
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace dg::analysis
