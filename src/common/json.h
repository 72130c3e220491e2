// JSON string escaping shared by every JSON writer in the engine: trace
// export, the metrics registry, incident bundles, profile-history records
// and structured logs.
#pragma once

#include <string>
#include <string_view>

namespace flashr::json {

/// Append `s` to `out` escaped for use inside a JSON string literal: quote
/// and backslash, \n \r \t by name, every other control byte below 0x20 as
/// \u00XX. Bytes >= 0x20 pass through unchanged (UTF-8 stays UTF-8).
inline void escape(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += ch;
        }
    }
  }
}

/// Append `s` as a quoted JSON string literal.
inline void quote(std::string& out, std::string_view s) {
  out += '"';
  escape(out, s);
  out += '"';
}

}  // namespace flashr::json
