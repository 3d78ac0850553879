#pragma once
// Append buffer behind every text format the repo writes (.macro, .dsn,
// library, Liberty, .gnn). Integers go through std::to_chars; floating
// point goes through std::to_chars(chars_format::general, precision),
// which the standard defines as printf's "%.<precision>g" — the same
// conversion an ostream at precision(<precision>) with default flags
// makes — so the bytes match the stream-based writers exactly, at a
// fraction of the cost.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace tmm::util {

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
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                      precision_);
    text_.append(buf, r.ptr);
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

  std::size_t size() const noexcept { return text_.size(); }
  const std::string& str() const noexcept { return text_; }
  std::string take() && { return std::move(text_); }

 private:
  std::string text_;
  int precision_;
};

}  // namespace tmm::util
