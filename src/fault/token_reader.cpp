#include "fault/token_reader.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace tmm::io {

namespace {

/// The C locale's isspace set: ' ', \t, \n, \v, \f, \r.
bool is_space(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// True when from_chars took all of `tok` into `v`.
template <typename T>
bool parse_whole(std::string_view tok, T& v) {
  const char* const last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, v);
  return ec == std::errc() && ptr == last;
}

}  // namespace

std::string read_rest(std::istream& is) {
  std::string text;
  std::streambuf* sb = is.rdbuf();
  if (sb == nullptr || !is.good()) return text;
  if (const std::streamsize avail = sb->in_avail(); avail > 0) {
    text.resize(static_cast<std::size_t>(avail));
    text.resize(static_cast<std::size_t>(sb->sgetn(text.data(), avail)));
  }
  char chunk[1 << 14];
  for (std::streamsize got; (got = sb->sgetn(chunk, sizeof chunk)) > 0;)
    text.append(chunk, static_cast<std::size_t>(got));
  is.setstate(std::ios::eofbit);
  return text;
}

TokenReader::TokenReader(std::istream& is, std::string source)
    : text_(read_rest(is)), source_(std::move(source)) {}

std::string_view TokenReader::token(const char* what) {
  const std::size_t n = text_.size();
  std::size_t i = pos_;
  while (i < n && is_space(text_[i])) {
    if (text_[i] == '\n') ++line_;
    ++i;
  }
  pos_ = i;
  if (i == n) fail(std::string("expected ") + what + ", got end of input");
  // The separator after the token stays unread, so the line count is
  // that of the token until the next call.
  while (i < n && !is_space(text_[i])) ++i;
  const std::string_view tok(text_.data() + pos_, i - pos_);
  pos_ = i;
  return tok;
}

void TokenReader::expect(const char* tag) {
  const std::string_view tok = token(tag);
  if (tok != tag)
    fail(std::string("expected '") + tag + "', got '" + std::string(tok) +
         "'");
}

double TokenReader::number(const char* what) {
  return to_number(token(what), what);
}

float TokenReader::number_f(const char* what) {
  const std::string_view tok = token(what);
  // The float, not the double, is checked: FLT_MAX printed at 9 digits
  // reads back as a double just above FLT_MAX but rounds to FLT_MAX.
  const auto v = static_cast<float>(to_number(tok, what));
  if (!std::isfinite(v))
    fail("non-finite value '" + std::string(tok) + "' for " + what);
  return v;
}

double TokenReader::to_number(std::string_view tok, const char* what) const {
  // from_chars and glibc strtod both round correctly, so a finite value
  // that from_chars takes whole has strtod's bits.
  if (double v = 0; parse_whole(tok, v) && std::isfinite(v)) return v;
  const std::string s(tok);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    fail(std::string("expected a number for ") + what + ", got '" + s + "'");
  if (!std::isfinite(v))
    fail("non-finite value '" + s + "' for " + what);
  return v;
}

std::size_t TokenReader::size(const char* what) {
  const std::string_view tok = token(what);
  if (unsigned long long v = 0; parse_whole(tok, v))
    return static_cast<std::size_t>(v);
  const std::string s(tok);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || end == s.c_str() || *end != '\0')
    fail(std::string("expected a non-negative integer for ") + what +
         ", got '" + s + "'");
  return static_cast<std::size_t>(v);
}

std::size_t TokenReader::size_at_most(const char* what, std::size_t cap) {
  const std::size_t v = size(what);
  if (v > cap)
    fail(std::string("implausible count ") + std::to_string(v) + " for " +
         what + " (limit " + std::to_string(cap) + ")");
  return v;
}

std::uint32_t TokenReader::u32(const char* what) {
  const std::size_t v = size(what);
  if (v > 0xFFFFFFFFull)
    fail(std::string("value out of range for ") + what);
  return static_cast<std::uint32_t>(v);
}

int TokenReader::integer_in(const char* what, int lo, int hi) {
  const std::string_view tok = token(what);
  long v = 0;
  if (!parse_whole(tok, v)) {
    const std::string s(tok);
    char* end = nullptr;
    v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
      fail(std::string("expected an integer for ") + what + ", got '" + s +
           "'");
  }
  if (v < lo || v > hi)
    fail("value " + std::string(tok) + " for " + what + " outside [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(v);
}

void TokenReader::fail(const std::string& msg) const {
  throw fault::FlowError(fault::ErrorCode::kParse,
                         source_ + ":" + std::to_string(line_), msg);
}

}  // namespace tmm::io
