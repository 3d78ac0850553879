#pragma once
// Append buffer behind every text format the repo writes (.macro, .dsn,
// library, Liberty, .gnn). Integers go through std::to_chars; floating
// point goes through to_chars_general, which prints the same bytes as
// std::to_chars(chars_format::general, precision). The standard defines
// that as printf's "%.<precision>g" — the same conversion an ostream at
// precision(<precision>) with default flags makes — so the bytes match
// the stream-based writers exactly, at a fraction of the cost.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace tmm::util {

/// std::to_chars(first, last, v, chars_format::general, precision), with
/// an exact fast path for precision <= 9 and 1e-5 <= |v| < 1e9: one
/// scaling by a power of ten and an integer rounding, falling back to
/// std::to_chars wherever the scaling error could change a digit
/// (docs/PERFORMANCE.md, "Text output"). Returns the end of the text.
char* to_chars_general(char* first, char* last, double v, int precision);

class TextOut {
 public:
  /// `precision` significant digits for every floating-point value.
  explicit TextOut(int precision) : precision_(precision) {}

  TextOut& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }
  TextOut& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  TextOut& operator<<(double v) {
    char buf[32];
    text_.append(buf, to_chars_general(buf, buf + sizeof buf, v, precision_));
    return *this;
  }
  /// Widened first, as an ostream does: "%.<precision>g" of the double.
  TextOut& operator<<(float v) { return *this << static_cast<double>(v); }
  /// One-byte types (bool, the character types) are left out: an
  /// ostream prints those as characters or words, not as numbers.
  template <std::integral T>
    requires(sizeof(T) > 1)
  TextOut& operator<<(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    text_.append(buf, r.ptr);
    return *this;
  }

  /// Appends a copy of the `n` bytes already written at `pos`.
  void append_copy(std::size_t pos, std::size_t n) {
    text_.reserve(text_.size() + n);  // so data() below stays valid
    text_.append(text_.data() + pos, n);
  }

  std::size_t size() const noexcept { return text_.size(); }
  /// Drops the text written so far and keeps the buffer for reuse.
  void clear() noexcept { text_.clear(); }
  const std::string& str() const noexcept { return text_; }
  std::string take() && { return std::move(text_); }

 private:
  std::string text_;
  int precision_;
};

}  // namespace tmm::util
