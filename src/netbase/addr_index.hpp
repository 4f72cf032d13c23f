#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netbase/hash.hpp"
#include "netbase/ipv6.hpp"

namespace sixdust {

/// Open-addressing index over an address column that the caller owns: a
/// power-of-two table of `uint32_t` positions into the column, probed
/// linearly from `hash_of(a)`. The table stores no keys of its own — a
/// probe compares the column entry a slot points at — so a slot is 4
/// bytes, and the column keeps its own order (nothing iterates the
/// table). The load factor stays at or below 1/2.
///
/// Every call must pass the same column, and the column may only grow
/// through insert(): the index does not see other writes to it.
class AddrIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Position of `a` in `column`, or kNone.
  [[nodiscard]] std::uint32_t find(std::span<const Ipv6> column,
                                   const Ipv6& a) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = hash_of(a) & mask();; i = (i + 1) & mask()) {
      const std::uint32_t pos = slots_[i];
      if (pos == kNone || column[pos] == a) return pos;
    }
  }

  /// Position of `a` in `column` and whether it is new; a new address is
  /// appended to `column`.
  std::pair<std::uint32_t, bool> insert(std::vector<Ipv6>& column,
                                        const Ipv6& a) {
    if (2 * (column.size() + 1) > slots_.size())
      rehash(column, std::max(column.size() + 1, slots_.size()));
    std::size_t i = hash_of(a) & mask();
    for (;; i = (i + 1) & mask()) {
      const std::uint32_t pos = slots_[i];
      if (pos == kNone) break;
      if (column[pos] == a) return {pos, false};
    }
    const auto pos = static_cast<std::uint32_t>(column.size());
    slots_[i] = pos;
    column.push_back(a);
    return {pos, true};
  }

  /// Size the table for `n` entries, so that inserts up to that many
  /// never rehash.
  void reserve(std::span<const Ipv6> column, std::size_t n) {
    if (2 * n > slots_.size()) rehash(column, n);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// Rebuild with the smallest power-of-two table (at least kMinSlots)
  /// that holds `n` entries at most half full, re-placing every position.
  void rehash(std::span<const Ipv6> column, std::size_t n) {
    std::size_t size = kMinSlots;
    while (size < 2 * n) size *= 2;
    slots_.assign(size, kNone);
    for (std::uint32_t pos = 0; pos < column.size(); ++pos) {
      std::size_t i = hash_of(column[pos]) & mask();
      while (slots_[i] != kNone) i = (i + 1) & mask();
      slots_[i] = pos;
    }
  }

  std::vector<std::uint32_t> slots_;
};

}  // namespace sixdust
