#include "netbase/addr_batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <memory>

#include "core/parallel.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace sixdust {
namespace {

/// Below this size the comparison sort wins (radix pays a scratch copy
/// and per-pass prefix sums regardless of n).
constexpr std::size_t kRadixMin = 512;

/// Pair two byte positions into one 16-bit digit only when the batch is
/// large enough to amortize the 65536-bucket prefix sum per pass.
constexpr std::size_t kPairMin = std::size_t{1} << 15;

/// Above this size the fully random first scatter becomes TLB-bound and
/// an 8-bit first digit (256 write streams) beats a 16-bit one.
constexpr std::size_t kTlbMin = std::size_t{1} << 19;

/// One LSD pass: sort by byte position `p0`, or by the composite
/// (p1 << 8) | p0 when p1 >= 0. Positions count from the least
/// significant byte of the packed 128-bit address; pairing two *active*
/// positions is valid even when constant (skipped) bytes lie between
/// them — stability makes the composite pass equal to the two byte
/// passes run back to back.
struct RadixPass {
  int p0 = 0;
  int p1 = -1;
};

inline unsigned digit128(u128 v, const RadixPass& pass) {
  unsigned d = static_cast<unsigned>(
      static_cast<std::uint64_t>(v >> (8 * pass.p0)) & 0xff);
  if (pass.p1 >= 0)
    d |= static_cast<unsigned>(
             static_cast<std::uint64_t>(v >> (8 * pass.p1)) & 0xff)
         << 8;
  return d;
}

/// Same digit read from the two columns — the first pass consumes hi_/lo_
/// directly so the packed scratch rows never need a separate fill sweep.
inline unsigned digit_cols(const std::uint64_t* hi, const std::uint64_t* lo,
                           std::size_t i, const RadixPass& pass) {
  const std::uint64_t w0 = pass.p0 < 8 ? lo[i] : hi[i];
  unsigned d = static_cast<unsigned>(w0 >> (8 * (pass.p0 & 7))) & 0xffu;
  if (pass.p1 >= 0) {
    const std::uint64_t w1 = pass.p1 < 8 ? lo[i] : hi[i];
    d |= (static_cast<unsigned>(w1 >> (8 * (pass.p1 & 7))) & 0xffu) << 8;
  }
  return d;
}

}  // namespace

void AddrBatch::assign(std::span<const Ipv6> addrs) {
  hi_.resize(addrs.size());
  lo_.resize(addrs.size());
  // The summary accumulates inside the copy loop — a few register ops on
  // data already in flight, so sort_unique() never needs a separate
  // detection sweep over freshly assigned content.
  Summary s;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const std::uint64_t hi = addrs[i].hi();
    const std::uint64_t lo = addrs[i].lo();
    if (i > 0 && pack(hi_[i - 1], lo_[i - 1]) >= pack(hi, lo))
      s.ascending = false;
    s.note(hi, lo);
    hi_[i] = hi;
    lo_[i] = lo;
  }
  summary_ = s;
  sorted_ = false;
}

std::vector<Ipv6> AddrBatch::to_vector() const {
  std::vector<Ipv6> out;
  copy_to(out);
  return out;
}

void AddrBatch::copy_to(std::vector<Ipv6>& out) const {
  out.resize(size());
  for (std::size_t i = 0; i < size(); ++i)
    out[i] = Ipv6::from_words(hi_[i], lo_[i]);
}

void AddrBatch::sort_unique(ThreadPool* pool, MetricsRegistry* reg) {
  const std::size_t n = size();
  if (n < 2) {
    sorted_ = true;
    return;
  }

  if (n < kRadixMin) {
    // Already strictly ascending (common: re-dedup of a deduped set) —
    // a flag check or one compare sweep instead of a sort.
    bool ascending = summary_.valid ? summary_.ascending : true;
    if (!summary_.valid) {
      for (std::size_t i = 1; i < n; ++i) {
        if (pack(hi_[i - 1], lo_[i - 1]) >= pack(hi_[i], lo_[i])) {
          ascending = false;
          break;
        }
      }
    }
    if (ascending) {
      sorted_ = true;
      if (reg != nullptr) reg->counter("tga.batch.sorted_addrs",
                                       Stability::kStable).add(n);
      return;
    }
    // Comparison-sort fallback: zip, sort, unzip (assign refreshes the
    // summary). Produces the same ascending-unique sequence as the radix
    // path.
    std::vector<Ipv6> tmp = to_vector();
    std::sort(tmp.begin(), tmp.end());
    tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
    assign(tmp);
    sorted_ = true;
    return;
  }

  // The already-ascending test (common: re-dedup of a deduped set, or an
  // ordered concatenation) and the per-column OR/AND summaries. A byte
  // position can reorder the batch only where OR and AND disagree;
  // address sets share long prefixes, so most of the 16 positions die
  // here without any histogram work. Content that arrived via assign or
  // push_back carries the summary already; anything else pays one fused
  // sweep.
  const std::size_t chunks = parallel_chunks(pool, n);
  Summary m;
  if (summary_.valid) {
    m = summary_;
  } else {
    std::vector<Summary> sw(chunks);
    parallel_for(pool, n, chunks,
                 [&](std::size_t c, std::size_t b, std::size_t e) {
                   Summary s;
                   for (std::size_t i = b; i < e; ++i) {
                     s.note(hi_[i], lo_[i]);
                     if (i > b &&
                         pack(hi_[i - 1], lo_[i - 1]) >= pack(hi_[i], lo_[i]))
                       s.ascending = false;
                   }
                   sw[c] = s;
                 });
    for (const Summary& s : sw) {
      m.or_hi |= s.or_hi;
      m.and_hi &= s.and_hi;
      m.or_lo |= s.or_lo;
      m.and_lo &= s.and_lo;
      m.ascending = m.ascending && s.ascending;
    }
    for (std::size_t c = 1; m.ascending && c < chunks; ++c) {
      const std::size_t b = chunk_range(n, chunks, c).first;
      if (pack(hi_[b - 1], lo_[b - 1]) >= pack(hi_[b], lo_[b]))
        m.ascending = false;
    }
  }
  if (m.ascending) {
    sorted_ = true;
    summary_ = m;
    summary_.valid = true;
    if (reg != nullptr) reg->counter("tga.batch.sorted_addrs",
                                     Stability::kStable).add(n);
    return;
  }
  const std::uint64_t diff_hi = m.or_hi ^ m.and_hi;
  const std::uint64_t diff_lo = m.or_lo ^ m.and_lo;
  std::vector<int> active;
  for (int pos = 0; pos < 16; ++pos) {
    const std::uint64_t w = pos < 8 ? diff_lo : diff_hi;
    if ((w >> (8 * (pos & 7))) & 0xff) active.push_back(pos);
  }
  if (active.empty()) {
    // Every address is the same value (not ascending, no varying byte).
    hi_.resize(1);
    lo_.resize(1);
    sorted_ = true;
    summary_ = m;
    summary_.ascending = true;
    summary_.valid = true;
    if (reg != nullptr) {
      reg->counter("tga.batch.sorted_addrs", Stability::kStable).add(n);
      reg->counter("tga.batch.dup_removed", Stability::kStable).add(n - 1);
    }
    return;
  }

  // Both paths below: LSD passes where each pass takes per-chunk digit
  // counts of the *current* arrangement, a digit-major exclusive prefix
  // sum (digit d of chunk c lands after every smaller digit and after
  // digit d of chunks < c — the stable order), then an independent
  // scatter per chunk. Scatter targets are disjoint and
  // position-computed, so the result is identical no matter how chunks
  // are scheduled. 32-bit counts keep the histograms and prefix sums
  // cache-resident; they cannot overflow while the columns themselves fit
  // in memory. make_unique_for_overwrite skips the zero-fill of buffers
  // every slot of which gets written anyway.
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  std::size_t passes_run = 0;
  std::size_t write = 0;

  // Varying-bit runs: contiguous spans of set bits in the diff masks, in
  // significance order (low word first). Constant bits *inside* a byte
  // compress away too — the compact key is the address's varying bits
  // packed tight, which preserves comparisons because every address in
  // the batch agrees on all the bits in between.
  struct BitRun {
    bool from_hi = false;
    int src_shift = 0;
    int dst_shift = 0;
    std::uint64_t mask = 0;
  };
  std::array<BitRun, 8> runs{};
  std::size_t n_runs = 0;
  int total_bits = 0;
  bool compactable = true;
  for (int word = 0; word < 2 && compactable; ++word) {
    std::uint64_t d = word == 0 ? diff_lo : diff_hi;
    int at = 0;
    while (d != 0) {
      const int skip = std::countr_zero(d);
      d >>= skip;
      at += skip;
      const int len = std::countr_one(d);
      if (n_runs == runs.size() || total_bits + len > 64) {
        compactable = false;
        break;
      }
      runs[n_runs++] = {word == 1, at, total_bits,
                       len == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << len) - 1};
      total_bits += len;
      at += len;
      d = len == 64 ? 0 : d >> len;
    }
  }

  if (compactable) {
    // Compact-key path. The varying bits fit a u64, so each address maps
    // order-preservingly (and, on this batch, bijectively) to its packed
    // varying bits: sort-unique of the keys is sort-unique of the
    // addresses at half the scatter traffic of 16-byte rows. The first
    // pass builds keys straight from the columns during its scatter — the
    // key array is never pre-materialized — and the full addresses are
    // rebuilt afterwards from the sorted keys plus the shared constant
    // bits.
    const std::uint64_t* ch = hi_.data();
    const std::uint64_t* cl = lo_.data();
    const auto key_at = [&runs, ch, cl](std::size_t nr, std::size_t i) {
      std::uint64_t key = 0;
      for (std::size_t r = 0; r < nr; ++r) {
        const BitRun& run = runs[r];
        key |= (((run.from_hi ? ch[i] : cl[i]) >> run.src_shift) & run.mask)
               << run.dst_shift;
      }
      return key;
    };

    // Digit plan over the packed key, one shift+mask per digit. Large
    // batches take an 8-bit first pass when it does not add a pass: its
    // 256 write streams stay TLB-resident for the one scatter whose
    // destinations are fully random (later passes inherit locality from
    // the growing prefix order). The rest are 16-bit digits; small
    // batches stay all-8-bit so the 65536-bucket fills and prefix sums
    // cannot dominate.
    struct KeyPass {
      int shift = 0;
      std::uint64_t mask = 0;
      std::size_t buckets = 0;
    };
    std::vector<KeyPass> passes;
    {
      const auto div_up = [](int a, int b) { return (a + b - 1) / b; };
      int width0 = n >= kPairMin ? 16 : 8;
      if (n >= kTlbMin && total_bits > 8 &&
          1 + div_up(total_bits - 8, 16) == div_up(total_bits, 16))
        width0 = 8;
      int shift = 0;
      while (shift < total_bits) {
        const int w = std::min(shift == 0 ? width0
                               : n >= kPairMin ? 16
                                               : 8,
                               total_bits - shift);
        passes.push_back({shift, (std::uint64_t{1} << w) - 1,
                          std::size_t{1} << w});
        shift += w;
      }
    }
    std::size_t max_buckets = 0;
    for (const KeyPass& pass : passes)
      max_buckets = std::max(max_buckets, pass.buckets);

    auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    std::uint64_t* src = keys.get();
    std::uint64_t* dst = scratch.get();

    // Sequential runs fuse the next pass's histogram into the current
    // scatter (the value is already in a register when it is written), so
    // only pass 0 pays a separate counting sweep. Parallel runs keep the
    // per-chunk counting sweep per pass: the fused counts would be
    // partitioned by the *old* arrangement, not the new one.
    const bool fuse = chunks == 1;
    auto counts = std::make_unique_for_overwrite<std::uint32_t[]>(
        (fuse ? 2 : chunks) * max_buckets);
    std::uint32_t* cur = counts.get();
    std::uint32_t* nxt = fuse ? counts.get() + max_buckets : nullptr;

    // Only the runs feeding the first digit matter for its histogram —
    // commonly a single low-word run, so that sweep reads one column.
    const int first_digit_end =
        passes.front().shift +
        static_cast<int>(std::bit_width(passes.front().mask));
    std::size_t hist_runs = 0;
    while (hist_runs < n_runs && runs[hist_runs].dst_shift < first_digit_end)
      ++hist_runs;

    for (std::size_t p = 0; p < passes.size(); ++p) {
      const KeyPass pass = passes[p];
      const bool from_cols = p == 0;
      if (from_cols) {
        parallel_for(pool, n, chunks,
                     [&](std::size_t c, std::size_t b, std::size_t e) {
                       std::uint32_t* h = cur + c * max_buckets;
                       std::fill_n(h, pass.buckets, std::uint32_t{0});
                       for (std::size_t i = b; i < e; ++i)
                         ++h[key_at(hist_runs, i) & pass.mask];
                     });
      } else if (!fuse) {
        parallel_for(pool, n, chunks,
                     [&](std::size_t c, std::size_t b, std::size_t e) {
                       std::uint32_t* h = cur + c * max_buckets;
                       std::fill_n(h, pass.buckets, std::uint32_t{0});
                       for (std::size_t i = b; i < e; ++i)
                         ++h[(src[i] >> pass.shift) & pass.mask];
                     });
      }
      std::uint32_t sum = 0;
      for (std::size_t d = 0; d < pass.buckets; ++d) {
        for (std::size_t c = 0; c < chunks; ++c) {
          const std::uint32_t v = cur[c * max_buckets + d];
          cur[c * max_buckets + d] = sum;
          sum += v;
        }
      }
      const bool count_next = fuse && p + 1 < passes.size();
      const KeyPass next = count_next ? passes[p + 1] : KeyPass{};
      if (count_next) std::fill_n(nxt, next.buckets, std::uint32_t{0});
      parallel_for(pool, n, chunks,
                   [&](std::size_t c, std::size_t b, std::size_t e) {
                     std::uint32_t* offset = cur + c * max_buckets;
                     for (std::size_t i = b; i < e; ++i) {
                       const std::uint64_t v =
                           from_cols ? key_at(n_runs, i) : src[i];
                       dst[offset[(v >> pass.shift) & pass.mask]++] = v;
                       if (count_next) ++nxt[(v >> next.shift) & next.mask];
                     }
                   });
      std::swap(src, dst);
      if (fuse) std::swap(cur, nxt);
    }
    passes_run = passes.size();

    // Rebuild the columns from the sorted unique keys: the shared
    // constant bits plus each key's runs back in their home positions.
    const std::uint64_t base_hi = m.and_hi & ~diff_hi;
    const std::uint64_t base_lo = m.and_lo & ~diff_lo;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && src[i] == src[i - 1]) continue;
      std::uint64_t hi = base_hi;
      std::uint64_t lo = base_lo;
      for (std::size_t r = 0; r < n_runs; ++r) {
        const BitRun& run = runs[r];
        const std::uint64_t bits = (src[i] >> run.dst_shift) & run.mask;
        if (run.from_hi)
          hi |= bits << run.src_shift;
        else
          lo |= bits << run.src_shift;
      }
      hi_[write] = hi;
      lo_[write] = lo;
      ++write;
    }
  } else {
    // Wide path (more than 8 varying bytes — near-random batches). Packed
    // 16-byte rows: each scatter write lands in one cache line where the
    // separate hi/lo columns would dirty two. The first pass reads the
    // columns directly and packs during its scatter, so no fill sweep
    // ever touches `rows`. Active positions pair into 16-bit digits on
    // large batches — half the scatter passes of byte-at-a-time.
    std::vector<RadixPass> passes;
    if (n >= kPairMin) {
      for (std::size_t j = 0; j + 1 < active.size(); j += 2)
        passes.push_back({active[j], active[j + 1]});
      if (active.size() % 2 != 0) passes.push_back({active.back(), -1});
    } else {
      for (const int pos : active) passes.push_back({pos, -1});
    }
    auto rows = std::make_unique_for_overwrite<u128[]>(n);
    auto scratch = std::make_unique_for_overwrite<u128[]>(n);
    u128* src = rows.get();
    u128* dst = scratch.get();
    std::size_t max_buckets = 256;
    for (const RadixPass& pass : passes)
      if (pass.p1 >= 0) max_buckets = 65536;
    auto counts =
        std::make_unique_for_overwrite<std::uint32_t[]>(chunks * max_buckets);
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const RadixPass pass = passes[p];
      const std::size_t buckets = pass.p1 >= 0 ? 65536 : 256;
      const bool from_cols = p == 0;
      parallel_for(pool, n, chunks,
                   [&](std::size_t c, std::size_t b, std::size_t e) {
                     std::uint32_t* h = counts.get() + c * max_buckets;
                     std::fill_n(h, buckets, std::uint32_t{0});
                     if (from_cols) {
                       for (std::size_t i = b; i < e; ++i)
                         ++h[digit_cols(hi_.data(), lo_.data(), i, pass)];
                     } else {
                       for (std::size_t i = b; i < e; ++i)
                         ++h[digit128(src[i], pass)];
                     }
                   });
      std::uint32_t sum = 0;
      for (std::size_t d = 0; d < buckets; ++d) {
        for (std::size_t c = 0; c < chunks; ++c) {
          const std::uint32_t v = counts[c * max_buckets + d];
          counts[c * max_buckets + d] = sum;
          sum += v;
        }
      }
      parallel_for(pool, n, chunks,
                   [&](std::size_t c, std::size_t b, std::size_t e) {
                     std::uint32_t* offset = counts.get() + c * max_buckets;
                     if (from_cols) {
                       for (std::size_t i = b; i < e; ++i)
                         dst[offset[digit_cols(hi_.data(), lo_.data(), i,
                                               pass)]++] =
                             pack(hi_[i], lo_[i]);
                     } else {
                       for (std::size_t i = b; i < e; ++i)
                         dst[offset[digit128(src[i], pass)]++] = src[i];
                     }
                   });
      std::swap(src, dst);
    }
    passes_run = passes.size();
    // Unpack and unique in one sequential sweep.
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && src[i] == src[i - 1]) continue;
      hi_[write] = static_cast<std::uint64_t>(src[i] >> 64);
      lo_[write] = static_cast<std::uint64_t>(src[i]);
      ++write;
    }
  }
  hi_.resize(write);
  lo_.resize(write);
  sorted_ = true;
  summary_ = m;  // outer bounds still hold for the deduped subset
  summary_.ascending = true;
  summary_.valid = true;

  if (reg != nullptr) {
    reg->counter("tga.batch.sorted_addrs", Stability::kStable).add(n);
    reg->counter("tga.batch.radix_passes", Stability::kStable).add(passes_run);
    reg->counter("tga.batch.radix_passes_skipped", Stability::kStable)
        .add(static_cast<std::uint64_t>(16 - active.size()));
    reg->counter("tga.batch.dup_removed", Stability::kStable).add(n - write);
  }
}

void AddrBatch::filter_covered(std::span<const Prefix> sorted_prefixes,
                               bool keep_covered, MetricsRegistry* reg) {
  assert(sorted_);
  const std::size_t n = size();
  CoverCursor cursor(sorted_prefixes);
  std::size_t write = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool covered = cursor.covers(Ipv6::from_words(hi_[i], lo_[i]));
    if (covered != keep_covered) continue;  // dropped
    hi_[write] = hi_[i];
    lo_[write] = lo_[i];
    ++write;
  }
  if (reg != nullptr) reg->counter("tga.batch.filtered_out",
                                   Stability::kStable).add(n - write);
  hi_.resize(write);
  lo_.resize(write);
}

void AddrBatch::subtract_sorted(const AddrBatch& known, MetricsRegistry* reg) {
  assert(sorted_ && known.sorted_);
  const std::size_t n = size();
  std::size_t j = 0;
  std::size_t write = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 key = pack(hi_[i], lo_[i]);
    while (j < known.size() && pack(known.hi_[j], known.lo_[j]) < key) ++j;
    if (j < known.size() && known.hi_[j] == hi_[i] && known.lo_[j] == lo_[i])
      continue;
    hi_[write] = hi_[i];
    lo_[write] = lo_[i];
    ++write;
  }
  if (reg != nullptr) reg->counter("tga.batch.filtered_out",
                                   Stability::kStable).add(n - write);
  hi_.resize(write);
  lo_.resize(write);
}

void AddrBatch::append_range(const Ipv6& first, std::uint64_t count) {
  const std::size_t base = size();
  hi_.resize(base + count);
  lo_.resize(base + count);
  std::uint64_t hi = first.hi();
  std::uint64_t lo = first.lo();
  std::size_t at = base;
  bool wrapped = false;
  while (count > 0) {
    // Fill the run that fits before the low word wraps as a simple
    // counted loop (vectorizable); step the high word across wraps.
    const std::uint64_t room = ~lo + 1;  // 0 means the full 2^64 space
    const std::uint64_t run =
        room == 0 ? count : std::min<std::uint64_t>(count, room);
    for (std::uint64_t k = 0; k < run; ++k) {
      hi_[at + k] = hi;
      lo_[at + k] = lo + k;
    }
    at += run;
    count -= run;
    lo += run;
    if (lo == 0) {
      ++hi;
      if (hi == 0 && count > 0) wrapped = true;  // past the 128-bit top
    }
  }
  // A range appended to an empty batch is ascending-unique unless it
  // wrapped the address space, so it can feed the merge ops directly.
  // The column summaries of a run are not worth maintaining — drop them.
  sorted_ = base == 0 && !wrapped;
  summary_.valid = false;
}

void AddrBatch::transpose_nibbles(std::uint8_t* out) const {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i)
    expand_nibbles(hi_[i], lo_[i], out + 32 * i);
}

void AddrBatch::nibble_histogram(int pos,
                                 std::span<std::uint32_t, 16> counts) const {
  for (auto& c : counts) c = 0;
  const std::vector<std::uint64_t>& col = pos < 16 ? hi_ : lo_;
  const int shift = 60 - 4 * (pos & 15);
  for (const std::uint64_t w : col) ++counts[(w >> shift) & 0xf];
}

void AddrBatch::nibble_field(int begin, int end, std::uint64_t* out) const {
  assert(begin >= 0 && end <= 32 && end - begin <= 16 && begin <= end);
  const std::size_t n = size();
  if (begin == end) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const int width = 4 * (end - begin);
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  if (end <= 16) {
    // Entirely in the high word.
    const int shift = 64 - 4 * end;
    for (std::size_t i = 0; i < n; ++i) out[i] = (hi_[i] >> shift) & mask;
  } else if (begin >= 16) {
    // Entirely in the low word.
    const int shift = 64 - 4 * (end - 16);
    for (std::size_t i = 0; i < n; ++i) out[i] = (lo_[i] >> shift) & mask;
  } else {
    // Straddles the word boundary.
    const int lo_nibbles = end - 16;
    const int lo_shift = 64 - 4 * lo_nibbles;
    for (std::size_t i = 0; i < n; ++i)
      out[i] = ((hi_[i] << (4 * lo_nibbles)) | (lo_[i] >> lo_shift)) & mask;
  }
}

void radix_dedup(std::vector<Ipv6>& addrs, ThreadPool* pool,
                 MetricsRegistry* reg) {
  if (addrs.size() < 2) return;
  if (addrs.size() < kRadixMin) {
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    return;
  }
  AddrBatch batch(addrs);
  batch.sort_unique(pool, reg);
  batch.copy_to(addrs);
}

}  // namespace sixdust
