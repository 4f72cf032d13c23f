#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netbase/u128.hpp"

namespace sixdust {

/// Reverses the bit order of `x` (bit 0 <-> bit 63): a byte swap, then
/// swaps of nibbles, bit pairs and single bits inside each byte.
constexpr std::uint64_t bit_reverse64(std::uint64_t x) {
  x = __builtin_bswap64(x);
  x = (x & 0xF0F0F0F0F0F0F0F0ULL) >> 4 | (x & 0x0F0F0F0F0F0F0F0FULL) << 4;
  x = (x & 0xCCCCCCCCCCCCCCCCULL) >> 2 | (x & 0x3333333333333333ULL) << 2;
  x = (x & 0xAAAAAAAAAAAAAAAAULL) >> 1 | (x & 0x5555555555555555ULL) << 1;
  return x;
}

/// 128-bit IPv6 address value type.
///
/// Stored as two 64-bit words (network order: `hi()` holds the first eight
/// bytes). Comparison order equals numeric address order. Parsing accepts
/// RFC 4291 text forms (including "::" compression and embedded dotted-quad
/// tails); formatting produces the RFC 5952 canonical representation.
class Ipv6 {
 public:
  constexpr Ipv6() = default;

  static constexpr Ipv6 from_words(std::uint64_t hi, std::uint64_t lo) {
    Ipv6 a;
    a.hi_ = hi;
    a.lo_ = lo;
    return a;
  }

  /// Parse an IPv6 address from text. Returns std::nullopt on malformed
  /// input. Accepts full, compressed ("::"), and IPv4-mapped tails.
  static std::optional<Ipv6> parse(std::string_view text);

  /// RFC 5952 canonical text form (lowercase, longest zero run compressed).
  [[nodiscard]] std::string str() const;

  [[nodiscard]] constexpr std::uint64_t hi() const { return hi_; }
  [[nodiscard]] constexpr std::uint64_t lo() const { return lo_; }

  /// Byte `i` (0 = most significant).
  [[nodiscard]] constexpr std::uint8_t byte(int i) const {
    const std::uint64_t w = i < 8 ? hi_ : lo_;
    const int shift = 56 - 8 * (i & 7);
    return static_cast<std::uint8_t>(w >> shift);
  }

  constexpr void set_byte(int i, std::uint8_t v) {
    std::uint64_t& w = i < 8 ? hi_ : lo_;
    const int shift = 56 - 8 * (i & 7);
    w = (w & ~(std::uint64_t{0xff} << shift)) | (std::uint64_t{v} << shift);
  }

  /// Nibble `i` in [0, 32) (0 = most significant hex digit).
  [[nodiscard]] constexpr unsigned nibble(int i) const {
    const std::uint64_t w = i < 16 ? hi_ : lo_;
    const int shift = 60 - 4 * (i & 15);
    return static_cast<unsigned>((w >> shift) & 0xf);
  }

  constexpr void set_nibble(int i, unsigned v) {
    std::uint64_t& w = i < 16 ? hi_ : lo_;
    const int shift = 60 - 4 * (i & 15);
    w = (w & ~(std::uint64_t{0xf} << shift)) |
        (static_cast<std::uint64_t>(v & 0xf) << shift);
  }

  /// Bit `i` in [0, 128) (0 = most significant).
  [[nodiscard]] constexpr bool bit(int i) const {
    const std::uint64_t w = i < 64 ? hi_ : lo_;
    return (w >> (63 - (i & 63))) & 1;
  }

  constexpr void set_bit(int i, bool v) {
    std::uint64_t& w = i < 64 ? hi_ : lo_;
    const std::uint64_t mask = std::uint64_t{1} << (63 - (i & 63));
    w = v ? (w | mask) : (w & ~mask);
  }

  /// The `width`-bit field starting at bit `pos` (MSB-first like `bit()`,
  /// so bit `pos` is the field's most significant bit), right-aligned.
  /// Needs width in [0, 64] and pos + width <= 128; the field may cross
  /// bit 64.
  [[nodiscard]] constexpr std::uint64_t field(int pos, int width) const {
    if (width == 0) return 0;
    return static_cast<std::uint64_t>(value() >> (128 - pos - width)) &
           low_mask(width);
  }

  /// This address with the `width`-bit field at `pos` set to the low
  /// `width` bits of `v` (same bit numbering and limits as `field()`).
  [[nodiscard]] constexpr Ipv6 with_field(int pos, int width,
                                          std::uint64_t v) const {
    if (width == 0) return *this;
    const int shift = 128 - pos - width;
    const u128 m = static_cast<u128>(low_mask(width)) << shift;
    const u128 r =
        (value() & ~m) | static_cast<u128>(v & low_mask(width)) << shift;
    return from_words(static_cast<std::uint64_t>(r >> 64),
                      static_cast<std::uint64_t>(r));
  }

  /// Address arithmetic on the full 128-bit value (wraps on overflow).
  [[nodiscard]] constexpr Ipv6 plus(std::uint64_t delta) const {
    Ipv6 r = *this;
    const std::uint64_t old = r.lo_;
    r.lo_ += delta;
    if (r.lo_ < old) ++r.hi_;
    return r;
  }

  /// Absolute distance to `other` when both share the same upper 64 bits;
  /// otherwise returns UINT64_MAX as a saturating sentinel.
  [[nodiscard]] constexpr std::uint64_t distance64(const Ipv6& other) const {
    if (hi_ != other.hi_) return ~std::uint64_t{0};
    return lo_ > other.lo_ ? lo_ - other.lo_ : other.lo_ - lo_;
  }

  friend constexpr auto operator<=>(const Ipv6&, const Ipv6&) = default;

 private:
  [[nodiscard]] constexpr u128 value() const {
    return static_cast<u128>(hi_) << 64 | lo_;
  }
  static constexpr std::uint64_t low_mask(int width) {
    return width >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << width) - 1;
  }

  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

/// Convenience literal-ish helper for tests and tables; aborts on bad text.
Ipv6 ip(std::string_view text);

}  // namespace sixdust
