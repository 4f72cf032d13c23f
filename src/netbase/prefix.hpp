#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netbase/ipv6.hpp"
#include "netbase/u128.hpp"

namespace sixdust {

/// An IPv6 prefix (network). The base address is kept canonical: all host
/// bits below `len` are zero (enforced on construction).
class Prefix {
 public:
  constexpr Prefix() = default;

  /// Builds a canonical prefix; host bits of `base` are masked off.
  static constexpr Prefix make(Ipv6 base, int len) {
    Prefix p;
    p.len_ = static_cast<std::uint8_t>(len);
    p.base_ = mask(base, len);
    return p;
  }

  /// Parse "2001:db8::/32". Returns std::nullopt on malformed input.
  static std::optional<Prefix> parse(std::string_view text);

  [[nodiscard]] constexpr const Ipv6& base() const { return base_; }
  [[nodiscard]] constexpr int len() const { return len_; }

  [[nodiscard]] constexpr bool contains(const Ipv6& a) const {
    return mask(a, len_) == base_;
  }

  [[nodiscard]] constexpr bool contains(const Prefix& other) const {
    return other.len_ >= len_ && contains(other.base_);
  }

  /// Number of addresses covered.
  [[nodiscard]] constexpr u128 size() const { return prefix_size(len_); }

  /// Last address of the prefix.
  [[nodiscard]] constexpr Ipv6 last() const {
    const Ipv6 h = host_mask();
    return Ipv6::from_words(base_.hi() | h.hi(), base_.lo() | h.lo());
  }

  /// The i-th direct sub-prefix with `extra` additional bits
  /// (i in [0, 2^extra)). Used by the multi-level alias detection which
  /// splits prefixes into 16 more-specifics (extra = 4).
  [[nodiscard]] constexpr Prefix subprefix(unsigned i, int extra) const {
    return make(base_.with_field(len_, extra, i), len_ + extra);
  }

  /// A deterministic pseudo-random address inside the prefix, derived from
  /// `salt`. This mirrors the hitlist's alias detection which probes one
  /// random address per sub-prefix.
  [[nodiscard]] Ipv6 random_address(std::uint64_t salt) const;

  [[nodiscard]] std::string str() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

  static constexpr Ipv6 mask(Ipv6 a, int len) {
    if (len >= 128) return a;
    if (len <= 0) return Ipv6{};
    std::uint64_t hi = a.hi();
    std::uint64_t lo = a.lo();
    if (len <= 64) {
      hi &= len == 64 ? ~std::uint64_t{0} : ~(~std::uint64_t{0} >> len);
      lo = 0;
    } else {
      lo &= ~(~std::uint64_t{0} >> (len - 64));
    }
    return Ipv6::from_words(hi, lo);
  }

 private:
  /// The bits below `len` set, the network bits clear.
  [[nodiscard]] constexpr Ipv6 host_mask() const {
    const Ipv6 net =
        mask(Ipv6::from_words(~std::uint64_t{0}, ~std::uint64_t{0}), len_);
    return Ipv6::from_words(~net.hi(), ~net.lo());
  }

  Ipv6 base_{};
  std::uint8_t len_ = 0;
};

/// Convenience helper for tests/tables; aborts on bad text.
Prefix pfx(std::string_view text);

struct PrefixHasher {
  std::size_t operator()(const Prefix& p) const {
    std::uint64_t h = p.base().hi() * 0x9e3779b97f4a7c15ULL;
    h ^= p.base().lo() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h ^ static_cast<std::uint64_t>(p.len());
  }
};

}  // namespace sixdust
