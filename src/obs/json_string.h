// The one JSON string escaper: metrics and trace export, analyzer
// diagnostics, the serving protocol and dgcli all write strings through it.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace dg::obs {

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` escaped, short
/// escapes for \b \f \n \r \t, \u00XX for every other control byte. Other
/// bytes pass through, so UTF-8 stays UTF-8.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace dg::obs
