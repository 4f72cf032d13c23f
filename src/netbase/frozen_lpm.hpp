#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/prefix.hpp"

namespace sixdust {

/// Immutable longest-prefix-match table, built once from a column of
/// (prefix, value) entries. This is the one LPM structure in sixdust.
///
/// The prefix set is compiled once into a sorted interval table: every
/// address maps to the most specific covering prefix, so the 128-level
/// descent collapses into a single binary search over a contiguous array
/// of 128-bit boundaries. The boundaries are stored in Eytzinger (BFS
/// heap) order, which turns the search into a tight, prefetch-friendly
/// loop over one flat array. Every prefix lookup goes through it: the RIB,
/// the blocklist, the deployment map, CDN alias coverage and the per-scan
/// aliased set.
///
/// Construction stable-sorts the column by Prefix order, (base, len), and
/// keeps the last value of a repeated prefix. Two columns holding the same
/// entries in any order therefore build identical tables, and lookups stay
/// deterministic.
///
/// Thread-safety: a FrozenLpm is deeply immutable after construction; any
/// number of threads may call the const interface concurrently without
/// synchronization. There is deliberately no way to add or remove entries
/// — build a new table to change the set (see DESIGN.md, "The LPM
/// layer").
template <typename T>
class FrozenLpm {
 public:
  /// An empty table: compile() still lays down the `::` boundary that
  /// slot_of() relies on, so every query answers "no match".
  FrozenLpm() { compile(); }

  explicit FrozenLpm(std::vector<std::pair<Prefix, T>> entries) {
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    prefixes_.reserve(entries.size());
    values_.reserve(entries.size());
    for (auto& [p, v] : entries) {
      if (!prefixes_.empty() && prefixes_.back() == p) {
        values_.back() = std::move(v);  // a repeated prefix: last one wins
        continue;
      }
      prefixes_.push_back(p);
      values_.push_back(std::move(v));
    }
    compile();
  }

  struct Match {
    Prefix prefix;
    const T* value = nullptr;
  };

  /// Longest-prefix match for `a`, if any stored prefix covers it.
  [[nodiscard]] std::optional<Match> longest_match(const Ipv6& a) const {
    const std::int32_t s = slot_of(a);
    if (s < 0) return std::nullopt;
    return Match{prefixes_[static_cast<std::size_t>(s)],
                 &values_[static_cast<std::size_t>(s)]};
  }

  /// Value of the longest stored prefix covering `a`, or nullptr — the
  /// fast path for consumers that do not need the matched prefix itself.
  [[nodiscard]] const T* lookup(const Ipv6& a) const {
    const std::int32_t s = slot_of(a);
    return s < 0 ? nullptr : &values_[static_cast<std::size_t>(s)];
  }

  /// True if any stored prefix covers `a`.
  [[nodiscard]] bool covers(const Ipv6& a) const { return slot_of(a) >= 0; }

  /// lookup() for every address of `p` at once: the value of the one
  /// interval holding all of `p` (nullptr when that interval has no
  /// match), or nullopt when an interval boundary falls inside `p`, so
  /// that its addresses resolve to different values and each needs its
  /// own lookup(). One descent for p.base(); `p` lies in that interval
  /// when p.last() is below the next boundary.
  [[nodiscard]] std::optional<const T*> lookup_prefix(const Prefix& p) const {
    const std::size_t k = upper_bound_node(pack(p.base()));
    if (k != 0 && ekey_[k] <= pack(p.last())) return std::nullopt;
    const std::int32_t s = k == 0 ? last_slot_ : eslot_[k];
    return s < 0 ? nullptr : &values_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] std::size_t size() const { return prefixes_.size(); }
  [[nodiscard]] bool empty() const { return prefixes_.empty(); }

  /// The stored prefixes in lexicographic (base, len) order.
  [[nodiscard]] const std::vector<Prefix>& prefixes() const {
    return prefixes_;
  }

 private:
  static constexpr Ipv6 kMaxAddr =
      Ipv6::from_words(~std::uint64_t{0}, ~std::uint64_t{0});

  /// Index of the interval covering `a`: the predecessor of the first
  /// boundary > `a`.
  [[nodiscard]] std::int32_t slot_of(const Ipv6& a) const {
    const std::size_t k = upper_bound_node(pack(a));
    return k == 0 ? last_slot_ : eslot_[k];
  }

  /// Heap position of the first boundary > `key`, or 0 when every
  /// boundary is <= `key` (then the last interval applies).
  /// Branch-reduced Eytzinger descent — node k's children are 2k and
  /// 2k+1, so the search is one multiply-add per level over a single
  /// contiguous array, with the grandchildren's cache line prefetched
  /// ahead.
  [[nodiscard]] std::size_t upper_bound_node(u128 key) const {
    const std::size_t n = ekey_.size() - 1;  // slot 0 unused (heap layout)
    std::size_t k = 1;
    while (k <= n) {
      // Prefetch four levels ahead (a 64-byte line holds 4 boundaries),
      // clamped in-bounds: stray prefetches still pay for TLB walks.
      __builtin_prefetch(ekey_.data() + std::min(k * 16, n));
      k = 2 * k + (ekey_[k] <= key ? 1 : 0);
    }
    // Cancel the trailing right turns plus the final left turn.
    return k >> (static_cast<unsigned>(std::countr_one(k)) + 1);
  }

  /// Sweep the (base, len)-sorted prefixes into disjoint half-open
  /// intervals annotated with the most specific covering prefix. Prefixes
  /// are pairwise nested or disjoint, so a stack of currently-open
  /// (containing) prefixes suffices.
  void compile() {
    starts_.reserve(2 * prefixes_.size() + 1);
    slot_.reserve(2 * prefixes_.size() + 1);
    boundary(Ipv6{}, -1);
    std::vector<std::int32_t> open;
    for (std::size_t i = 0; i < prefixes_.size(); ++i) {
      const Prefix& p = prefixes_[i];
      close_until(open, p);
      boundary(p.base(), static_cast<std::int32_t>(i));
      open.push_back(static_cast<std::int32_t>(i));
    }
    close_until(open, std::nullopt);

    // Re-lay the boundary table in Eytzinger order. Each heap node stores
    // its boundary address and the slot of the interval *ending* there
    // (its sorted predecessor), which is exactly what the predecessor
    // search needs; the head boundary :: can never be an upper bound.
    const std::size_t n = starts_.size();
    ekey_.assign(n + 1, u128{0});
    eslot_.assign(n + 1, -1);
    last_slot_ = slot_.back();
    eytzingerize(0, 1);
    starts_.clear();
    starts_.shrink_to_fit();
    slot_.clear();
    slot_.shrink_to_fit();
  }

  std::size_t eytzingerize(std::size_t i, std::size_t k) {
    if (k < ekey_.size()) {
      i = eytzingerize(i, 2 * k);
      ekey_[k] = pack(starts_[i]);
      eslot_[k] = i == 0 ? -1 : slot_[i - 1];
      i = eytzingerize(i + 1, 2 * k + 1);
    }
    return i;
  }

  static u128 pack(const Ipv6& a) {
    return (u128{a.hi()} << 64) | a.lo();
  }

  /// Pop open prefixes that end before `next` starts (all of them when
  /// `next` is empty), emitting the boundary where each one's coverage
  /// hands back to its parent.
  void close_until(std::vector<std::int32_t>& open,
                   std::optional<Prefix> next) {
    while (!open.empty()) {
      const Prefix& top = prefixes_[static_cast<std::size_t>(open.back())];
      if (next && top.contains(*next)) return;
      open.pop_back();
      const Ipv6 end = top.last();
      if (end == kMaxAddr) continue;  // nothing above; outer ends there too
      boundary(end.plus(1), open.empty() ? -1 : open.back());
    }
  }

  void boundary(const Ipv6& start, std::int32_t slot) {
    if (!starts_.empty() && starts_.back() == start) {
      slot_.back() = slot;  // a more specific prefix starts at the same base
      return;
    }
    starts_.push_back(start);
    slot_.push_back(slot);
  }

  /// Interval i covers [starts_[i], starts_[i+1]) and resolves to
  /// prefixes_[slot_[i]] (no match when the slot is -1). Both vectors are
  /// scratch during compile(); lookups run on the Eytzinger arrays below.
  std::vector<Ipv6> starts_;
  std::vector<std::int32_t> slot_;
  /// Heap-ordered boundary addresses (1-based; ekey_[0] unused, packed as
  /// raw 128-bit integers for flat compares) and the slot of the interval
  /// ending at each boundary.
  std::vector<u128> ekey_;
  std::vector<std::int32_t> eslot_;
  std::int32_t last_slot_ = -1;
  std::vector<Prefix> prefixes_;
  std::vector<T> values_;
};

}  // namespace sixdust
