#pragma once
// Line-tracking token reader for the text formats (designs, macro
// models, GNN weights, checkpoints). Replaces bare `is >> x` parsing so
// a malformed file reports *where* it is malformed:
//
//   [parse] blk.dsn:17: expected 'sink', got 'snk'
//
// and so non-finite numeric fields (NaN in a LUT, Inf in a weight) are
// rejected at the parse boundary instead of corrupting timing silently.

#include <cstdint>
#include <istream>
#include <string>

#include "fault/fault.hpp"

namespace tmm::io {

class TokenReader {
 public:
  /// `source` names the stream in diagnostics (file path, or a logical
  /// name like "<macro>" when parsing from memory).
  TokenReader(std::istream& is, std::string source)
      : is_(is), source_(std::move(source)) {}

  /// Next whitespace-delimited token; `what` names it in the error
  /// raised at end-of-input.
  std::string token(const char* what);

  /// token() that must equal `tag` exactly.
  void expect(const char* tag);

  /// Finite floating-point field (NaN/Inf is a parse error). Accepts
  /// the hexfloat spelling the checkpoint writer uses.
  double number(const char* what);
  /// number() that must also be finite as a float: a value beyond
  /// FLT_MAX (say 1e300 in a weight) is the same parse error as "inf".
  float number_f(const char* what);

  /// Non-negative integer field.
  std::size_t size(const char* what);
  /// size() capped: a corrupt count field must not turn into a
  /// multi-gigabyte allocation before the next token check fires.
  std::size_t size_at_most(const char* what, std::size_t cap);
  std::uint32_t u32(const char* what);
  /// Integer field constrained to [lo, hi] (enum ranges, flags).
  int integer_in(const char* what, int lo, int hi);

  /// 1-based line of the most recently read token.
  std::size_t line() const noexcept { return line_; }
  const std::string& source() const noexcept { return source_; }

  /// Raise a parse error at the current source:line.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  /// `tok` as a finite double, or a parse error naming `what`.
  double to_number(const std::string& tok, const char* what) const;

  std::istream& is_;
  std::string source_;
  std::size_t line_ = 1;
};

}  // namespace tmm::io
