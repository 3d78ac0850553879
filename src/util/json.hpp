#pragma once
// JSON string literals for the hand-written JSON writers: Chrome trace,
// metrics snapshot, flight-recorder dump, serve stats and admin replies,
// BENCH_<name>.json reports.

#include <string>
#include <string_view>

namespace tmm::util {

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// backslash-escaped, newline and tab become `\n` and `\t`, every other
/// byte below 0x20 becomes `\u00xx`; all other bytes pass through, so
/// UTF-8 text stays as it is.
inline std::string json_quoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace tmm::util
