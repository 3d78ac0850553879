#include "fault/token_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace tmm::io {

std::string TokenReader::token(const char* what) {
  int c = is_.get();
  while (c != std::istream::traits_type::eof() &&
         std::isspace(static_cast<unsigned char>(c))) {
    if (c == '\n') ++line_;
    c = is_.get();
  }
  if (c == std::istream::traits_type::eof())
    fail(std::string("expected ") + what + ", got end of input");
  std::string tok;
  while (c != std::istream::traits_type::eof() &&
         !std::isspace(static_cast<unsigned char>(c))) {
    tok.push_back(static_cast<char>(c));
    c = is_.get();
  }
  // Put the trailing separator back so line counting stays exact for
  // the next token.
  if (c != std::istream::traits_type::eof())
    is_.unget();
  return tok;
}

void TokenReader::expect(const char* tag) {
  const std::string tok = token(tag);
  if (tok != tag)
    fail(std::string("expected '") + tag + "', got '" + tok + "'");
}

double TokenReader::number(const char* what) {
  return to_number(token(what), what);
}

float TokenReader::number_f(const char* what) {
  const std::string tok = token(what);
  // The float, not the double, is checked: FLT_MAX printed at 9 digits
  // reads back as a double just above FLT_MAX but rounds to FLT_MAX.
  const auto v = static_cast<float>(to_number(tok, what));
  if (!std::isfinite(v))
    fail(std::string("non-finite value '") + tok + "' for " + what);
  return v;
}

double TokenReader::to_number(const std::string& tok,
                               const char* what) const {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0')
    fail(std::string("expected a number for ") + what + ", got '" + tok +
         "'");
  if (!std::isfinite(v))
    fail(std::string("non-finite value '") + tok + "' for " + what);
  return v;
}

std::size_t TokenReader::size(const char* what) {
  const std::string tok = token(what);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok.empty() || tok[0] == '-' || end == tok.c_str() || *end != '\0')
    fail(std::string("expected a non-negative integer for ") + what +
         ", got '" + tok + "'");
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
  const std::string tok = token(what);
  char* end = nullptr;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0')
    fail(std::string("expected an integer for ") + what + ", got '" + tok +
         "'");
  if (v < lo || v > hi)
    fail(std::string("value ") + tok + " for " + what + " outside [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(v);
}

void TokenReader::fail(const std::string& msg) const {
  throw fault::FlowError(fault::ErrorCode::kParse,
                         source_ + ":" + std::to_string(line_), msg);
}

}  // namespace tmm::io
