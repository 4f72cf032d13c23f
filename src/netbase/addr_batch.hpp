#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "netbase/u128.hpp"

namespace sixdust {

class ThreadPool;
class MetricsRegistry;

/// Structure-of-arrays batch of IPv6 addresses — the bulk representation
/// behind the target-generation layer (DESIGN.md §12).
///
/// A `std::vector<Ipv6>` is an array of 16-byte records; at hitlist scale
/// (10^7..10^8 candidates) the per-address operations the generators live
/// on — nibble extraction, sort-unique dedup, membership filtering —
/// become the bottleneck when they run record-at-a-time. AddrBatch keeps
/// the two 64-bit halves in separate columns so that
///
///  * sort_unique() can run an LSD radix sort over the address bytes
///    (dropping positions the whole batch agrees on — address sets share
///    long prefixes, so typically only 4-7 of the 16 bytes vary — and
///    pairing the survivors into 16-bit digits, so a clustered batch
///    sorts in 2-4 scatter passes),
///  * the nibble transpose reads one column sequentially and writes
///    contiguous output the compiler auto-vectorizes (no intrinsics; see
///    expand_nibbles below), and
///  * membership filtering against sorted prefix tables or sorted known
///    sets is a single merge pass instead of per-address lookups.
///
/// Determinism: every operation is a pure function of the batch content.
/// sort_unique() may fan out over a ThreadPool, but the radix scatter
/// writes each element to a position computed from global digit counts —
/// the result is byte-identical for any thread count (including none),
/// the same contract as core/parallel.hpp's ordered helpers.
class AddrBatch {
 public:
  AddrBatch() = default;
  explicit AddrBatch(std::span<const Ipv6> addrs) { assign(addrs); }

  void assign(std::span<const Ipv6> addrs);
  void clear() {
    hi_.clear();
    lo_.clear();
    sorted_ = false;
    summary_ = Summary{};
  }
  void reserve(std::size_t n) {
    hi_.reserve(n);
    lo_.reserve(n);
  }
  void push_back(const Ipv6& a) {
    if (summary_.valid && !empty() &&
        pack(hi_.back(), lo_.back()) >= pack(a.hi(), a.lo()))
      summary_.ascending = false;
    summary_.note(a.hi(), a.lo());
    hi_.push_back(a.hi());
    lo_.push_back(a.lo());
    sorted_ = false;
  }

  [[nodiscard]] std::size_t size() const { return hi_.size(); }
  [[nodiscard]] bool empty() const { return hi_.empty(); }
  [[nodiscard]] Ipv6 operator[](std::size_t i) const {
    return Ipv6::from_words(hi_[i], lo_[i]);
  }
  [[nodiscard]] std::span<const std::uint64_t> hi() const { return hi_; }
  [[nodiscard]] std::span<const std::uint64_t> lo() const { return lo_; }

  [[nodiscard]] std::vector<Ipv6> to_vector() const;
  void copy_to(std::vector<Ipv6>& out) const;

  /// Sort ascending in numeric address order and drop duplicates. Large
  /// batches take the LSD radix path (optionally parallelized over
  /// `pool`); small ones fall back to a comparison sort. Both paths and
  /// every thread count produce the identical byte sequence. When `reg`
  /// is non-null, records tga.batch.* counters (radix passes run/skipped,
  /// duplicates removed) — all stable: they depend on the data only.
  void sort_unique(ThreadPool* pool = nullptr, MetricsRegistry* reg = nullptr);

  /// True after sort_unique() until the next mutation. The membership
  /// ops below require it.
  [[nodiscard]] bool sorted() const { return sorted_; }

  /// Remove every address covered by any of `sorted_prefixes` (when
  /// `keep_covered`, remove every address NOT covered). The prefixes must
  /// be in lexicographic (base, len) order — exactly what
  /// FrozenLpm::prefixes() and PrefixSet::prefixes() return — and
  /// pairwise nested or disjoint (always true of prefix sets). One merge
  /// pass over batch + table; requires sorted().
  void filter_covered(std::span<const Prefix> sorted_prefixes,
                      bool keep_covered = false,
                      MetricsRegistry* reg = nullptr);

  /// Remove every address present in `known` (itself sorted). One merge
  /// pass; requires sorted() on both sides.
  void subtract_sorted(const AddrBatch& known, MetricsRegistry* reg = nullptr);

  /// Append `count` consecutive addresses starting at `first` (wrapping
  /// 128-bit increment). The column fill is a vectorizable counted loop.
  /// A range appended to an empty batch that does not wrap the address
  /// space leaves the batch sorted() — ready for the merge ops above.
  void append_range(const Ipv6& first, std::uint64_t count);

  // --- nibble transpose ----------------------------------------------------

  /// Write the 32 hex nibbles of every address (most significant first)
  /// row-major into `out` (size() * 32 bytes).
  void transpose_nibbles(std::uint8_t* out) const;

  /// Per-position nibble histogram: counts[v] = how many addresses have
  /// value v at nibble position `pos` (0 = most significant).
  void nibble_histogram(int pos, std::span<std::uint32_t, 16> counts) const;

  /// The nibble field [begin, end) of every address as an integer (at
  /// most 16 nibbles wide), out[i] = value for address i. The per-element
  /// work is two shifts and an or — a vectorizable columnar scan.
  void nibble_field(int begin, int end, std::uint64_t* out) const;

  [[nodiscard]] static u128 pack(std::uint64_t hi, std::uint64_t lo) {
    return (u128{hi} << 64) | lo;
  }

 private:
  /// Running column summaries, maintained for free inside the assign and
  /// push_back loops: OR/AND of each column (their XOR marks the byte
  /// positions that can reorder the batch) and whether the content is
  /// already strictly ascending. sort_unique() consumes them to skip its
  /// detection sweep; mutations that cannot maintain them cheaply drop
  /// `valid` and the sweep runs instead. After element *removals* the
  /// OR/AND stay outer bounds of the true column ranges, which only ever
  /// overstates the varying bits — safe, at worst a wasted radix digit.
  struct Summary {
    std::uint64_t or_hi = 0, or_lo = 0;
    std::uint64_t and_hi = ~std::uint64_t{0}, and_lo = ~std::uint64_t{0};
    bool ascending = true;
    bool valid = true;
    void note(std::uint64_t hi, std::uint64_t lo) {
      or_hi |= hi;
      and_hi &= hi;
      or_lo |= lo;
      and_lo &= lo;
    }
  };

  std::vector<std::uint64_t> hi_;
  std::vector<std::uint64_t> lo_;
  bool sorted_ = false;
  Summary summary_;
};

/// The merge cursor behind every "is this address covered?" pass over a
/// sorted address column: AddrBatch::filter_covered and the hitlist
/// service's alias filter. The prefixes must be in lexicographic (base,
/// len) order — what FrozenLpm::prefixes() and PrefixSet::prefixes()
/// return — and pairwise nested or disjoint (always true of prefixes).
/// Feed addresses in ascending order; each query advances the cursor, so
/// a pass costs one walk over addresses + prefixes instead of one LPM per
/// address.
class CoverCursor {
 public:
  explicit CoverCursor(std::span<const Prefix> sorted_prefixes)
      : prefixes_(sorted_prefixes) {}

  /// Whether any prefix covers `a`, which must not be below the address
  /// of the previous call.
  [[nodiscard]] bool covers(const Ipv6& a) {
    const u128 key = AddrBatch::pack(a.hi(), a.lo());
    while (!open_ends_.empty() && open_ends_.back() < key)
      open_ends_.pop_back();
    while (next_ < prefixes_.size() &&
           AddrBatch::pack(prefixes_[next_].base().hi(),
                           prefixes_[next_].base().lo()) <= key) {
      const Ipv6 last = prefixes_[next_].last();
      const u128 end = AddrBatch::pack(last.hi(), last.lo());
      // A prefix ending before the cursor can never cover a later
      // (larger) address; prefixes are nested-or-disjoint, so pushed ends
      // stay descending and the pop above retires the innermost first.
      if (end >= key) open_ends_.push_back(end);
      ++next_;
    }
    return !open_ends_.empty();
  }

 private:
  std::span<const Prefix> prefixes_;
  std::size_t next_ = 0;
  /// Ends of the prefixes covering the cursor, outermost first
  /// (descending ends).
  std::vector<u128> open_ends_;
};

/// Expand one address into its 32 nibbles (most significant first). The
/// byte-split inner loop is branch-free with constant shifts, so the
/// compiler unrolls and vectorizes it — this is the kernel behind
/// AddrBatch::transpose_nibbles and the batch helpers in tga/generator.hpp.
inline void expand_nibbles(std::uint64_t hi, std::uint64_t lo,
                           std::uint8_t* out) {
  const std::uint64_t words[2] = {__builtin_bswap64(hi),
                                  __builtin_bswap64(lo)};
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words);
  for (int j = 0; j < 16; ++j) {
    out[2 * j] = static_cast<std::uint8_t>(bytes[j] >> 4);
    out[2 * j + 1] = static_cast<std::uint8_t>(bytes[j] & 0xf);
  }
}

/// Inverse of expand_nibbles: pack 32 nibbles into an address.
inline Ipv6 pack_nibbles(const std::uint8_t* nibbles) {
  std::uint64_t words[2];
  auto* bytes = reinterpret_cast<std::uint8_t*>(words);
  for (int j = 0; j < 16; ++j)
    bytes[j] = static_cast<std::uint8_t>((nibbles[2 * j] << 4) |
                                         (nibbles[2 * j + 1] & 0xf));
  return Ipv6::from_words(__builtin_bswap64(words[0]),
                          __builtin_bswap64(words[1]));
}

/// Sort + dedup a plain address vector through the batch engine — the
/// hitlist-scale replacement for the comparison-sort dedup_addresses path.
void radix_dedup(std::vector<Ipv6>& addrs, ThreadPool* pool = nullptr,
                 MetricsRegistry* reg = nullptr);

}  // namespace sixdust
