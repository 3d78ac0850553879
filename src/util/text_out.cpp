#include "util/text_out.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace tmm::util {

namespace {

/// 10^k for k in [0, 22]: every one is exact as a double.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                             1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
/// 10^k for k in [-6, 10], for the exponent estimate only: the negative
/// powers are the nearest doubles, not the exact values, so an estimate
/// can be one decade off next to them. The range check on the scaled
/// value below catches that and falls back.
constexpr double kDecade[] = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
                              1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                              1e6,  1e7,  1e8,  1e9,  1e10};
constexpr int kDecadeBias = 6;

constexpr char kPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/// The fast path's window: |v| in [kLow, kHigh), exponents -5..8.
constexpr double kLow = 1e-5;
constexpr double kHigh = 1e9;
/// Room the fast path writes into: its longest text is 16 chars
/// ("-0.0000" then 9 digits), and its fixed-size copies reach 19.
constexpr std::ptrdiff_t kMaxFastChars = 20;

}  // namespace

char* to_chars_general(char* first, char* last, double v, int precision) {
  const auto exact = [&] {
    return std::to_chars(first, last, v, std::chars_format::general,
                         precision)
        .ptr;
  };
  const double a = v < 0 ? -v : v;
  // NaN fails both comparisons; ±0, subnormals and ±inf are outside.
  if (precision < 1 || precision > 9 || !(a >= kLow && a < kHigh) ||
      last - first < kMaxFastChars)
    return exact();

  // Decimal exponent E: floor(e2 * log10 2) from the binary exponent,
  // then one step up if a reaches the next power of ten.
  const int e2 =
      static_cast<int>((std::bit_cast<std::uint64_t>(a) >> 52) & 0x7ff) - 1023;
  int exp10 = (e2 * 1233) >> 12;
  if (a >= kDecade[exp10 + 1 + kDecadeBias]) ++exp10;

  // x = a * 10^s: one correctly rounded multiply or divide by an exact
  // power of ten, so |x - exact| <= ulp(x)/2 < 6e-8 for x < 2^30.
  const int s = precision - 1 - exp10;
  const double x = s >= 0 ? a * kPow10[s] : a / kPow10[-s];
  // Outside [10^(P-1), 10^P - 1) the exponent estimate was off or the
  // rounding could carry into the next decade.
  if (!(x >= kPow10[precision - 1] && x < kPow10[precision] - 1))
    return exact();
  const auto whole = static_cast<std::uint32_t>(x);
  const double frac = x - static_cast<double>(whole);  // exact
  // Within 1e-6 of a half the error bound cannot decide the rounding
  // direction (exact ties included): let to_chars round exactly.
  if (frac > 0.5 - 1e-6 && frac < 0.5 + 1e-6)
    return exact();
  const std::uint32_t digits = whole + (frac > 0.5 ? 1u : 0u);

  // All nine digits of `digits` (< 10^9) with leading zeros, as two
  // independent 4-digit halves and a top digit; the P significant ones
  // are the last P.
  char nine[9 + 9];  // the tail slack lets the copies below be fixed-size
  const std::uint32_t hi = digits / 10000;
  const std::uint32_t lo = digits % 10000;
  nine[0] = static_cast<char>('0' + hi / 10000);
  std::memcpy(nine + 1, kPairs + 2 * (hi % 10000 / 100), 2);
  std::memcpy(nine + 3, kPairs + 2 * (hi % 100), 2);
  std::memcpy(nine + 5, kPairs + 2 * (lo / 100), 2);
  std::memcpy(nine + 7, kPairs + 2 * (lo % 100), 2);
  std::memset(nine + 9, '0', 9);
  const char* d = nine + 9 - precision;
  int kept = precision;  // significant digits after stripping zeros
  while (kept > 1 && d[kept - 1] == '0') --kept;

  // Fixed-size copies of up to 8 digits, with the end pointer advanced
  // by the real count: kMaxFastChars leaves room for the overshoot.
  char* p = first;
  if (v < 0) *p++ = '-';
  if (exp10 < -4 || exp10 >= precision) {
    // d.ddde±XX; |exp10| < 100 inside the window.
    p[0] = d[0];
    p[1] = '.';
    std::memcpy(p + 2, d + 1, 8);
    p += kept > 1 ? kept + 1 : 1;
    const int ae = exp10 < 0 ? -exp10 : exp10;
    p[0] = 'e';
    p[1] = exp10 < 0 ? '-' : '+';
    std::memcpy(p + 2, kPairs + 2 * ae, 2);
    p += 4;
  } else if (exp10 >= 0) {
    const int int_digits = exp10 + 1;
    std::memcpy(p, d, 9);
    p += int_digits;
    p[0] = '.';
    std::memcpy(p + 1, d + int_digits, 8);
    if (kept > int_digits) p += 1 + kept - int_digits;
  } else {
    std::memcpy(p, "0.0000", 6);
    p += 1 - exp10;  // "0." and -exp10 - 1 zeros
    std::memcpy(p, d, 9);
    p += kept;
  }
  return p;
}

}  // namespace tmm::util
