#include "alias/apd.hpp"

#include <algorithm>
#include <functional>

#include "core/parallel.hpp"
#include "netbase/addr_batch.hpp"
#include "netbase/hash.hpp"
#include "obs/trace.hpp"

namespace sixdust {

std::vector<Prefix> AliasDetector::candidates(const Rib& rib,
                                              std::span<const Ipv6> input,
                                              const Config& cfg) {
  // Sorted distinct addresses: each run of equal hi words is one rule-(b)
  // /64, and inside a /64 each run of equal lo >> (128 - len) is one
  // prefix of length len. Rule (c) — prefixes longer than /64 with >= 100
  // addresses — can only trigger inside a /64 run that long. Strictly
  // ascending input (the service's sorted eligible column) is read in
  // place; anything else is sorted into a copy first.
  std::span<const Ipv6> addrs = input;
  std::vector<Ipv6> sorted;
  if (std::adjacent_find(input.begin(), input.end(),
                         std::greater_equal<>()) != input.end()) {
    sorted.assign(input.begin(), input.end());
    radix_dedup(sorted);
    addrs = sorted;
  }
  const std::size_t min_addrs = cfg.long_prefix_min_addrs;

  // Rules (b) and (c) in (base, len) order: a /64 sorts before every
  // longer prefix inside it, and each /64's rule-(c) run (emitted length
  // by length) is sorted on its own before the next /64 starts.
  std::vector<Prefix> out;
  for (std::size_t i = 0, end = 0; i < addrs.size(); i = end) {
    const std::uint64_t hi = addrs[i].hi();
    end = i + 1;
    while (end < addrs.size() && addrs[end].hi() == hi) ++end;
    out.push_back(Prefix::make(Ipv6::from_words(hi, 0), 64));
    if (end - i < min_addrs) continue;
    const std::size_t run = out.size();
    for (int len = 68; len <= cfg.max_len; len += 4) {
      const int shift = 128 - len;
      for (std::size_t j = i, next = i; j < end; j = next) {
        next = j + 1;
        const std::uint64_t key = addrs[j].lo() >> shift;
        while (next < end && (addrs[next].lo() >> shift) == key) ++next;
        if (next - j >= min_addrs)
          out.push_back(Prefix::make(Ipv6::from_words(hi, addrs[j].lo()), len));
      }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(run), out.end());
  }

  // Rule (a): BGP prefixes, already sorted and unique — merged in place
  // from the back. A prefix both announced and enumerated is kept once,
  // which leaves a gap after the untouched front of `out`.
  const std::vector<Prefix>& bgp = rib.prefixes();
  std::size_t i = out.size();
  std::size_t j = bgp.size();
  std::size_t k = i + j;
  out.resize(k);
  while (j > 0) {
    --k;
    if (i > 0 && bgp[j - 1] < out[i - 1]) {
      out[k] = out[--i];
      continue;
    }
    if (i > 0 && out[i - 1] == bgp[j - 1]) --i;
    out[k] = bgp[--j];
  }
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(i),
            out.begin() + static_cast<std::ptrdiff_t>(k));
  return out;
}

void AliasDetector::init_metrics() {
  MetricsRegistry* reg = cfg_.metrics;
  if (reg == nullptr) return;
  m_rounds_ = &reg->counter("apd.rounds", Stability::kStable);
  m_candidates_ = &reg->counter("apd.candidates_tested", Stability::kStable);
  m_probes_ = &reg->counter("apd.probes_sent", Stability::kStable);
  m_aliased_ = &reg->counter("apd.aliased_verdicts", Stability::kStable);
  static constexpr std::uint64_t kBounds[] = {256,   1024,   4096,  16384,
                                              65536, 262144, 1048576};
  m_probes_per_round_ = &reg->histogram("apd.probes_per_round", kBounds,
                                        Stability::kStable);
}

bool AliasDetector::lost(const Ipv6& a, ScanDate d, int proto_tag) const {
  if (cfg_.loss <= 0) return false;
  const std::uint64_t h =
      hash_combine(hash_of(a, cfg_.seed ^ 0xA1D),
                   (static_cast<std::uint64_t>(d.index) << 8) |
                       static_cast<std::uint64_t>(proto_tag));
  return unit_from_hash(h) < cfg_.loss;
}

std::uint16_t AliasDetector::probe_mask(const World& world, const Prefix& p,
                                        ScanDate date,
                                        std::uint64_t* probes) const {
  // The candidate's deployment is resolved once; each sub-target pays only
  // its host computation (World::answers_in falls back to one lookup per
  // target when a deployment boundary cuts through the candidate).
  const World::PrefixAnswers answers_in_p = world.answers_in(p);
  const std::uint64_t addr_seed =
      hash_combine(cfg_.seed, static_cast<std::uint64_t>(date.index));
  std::uint16_t mask = 0;
  for (unsigned i = 0; i < 16; ++i) {
    const Ipv6 target = p.subprefix(i, 4).random_address(addr_seed);
    // The loss draws below decide which of the probes that the answer mask
    // says would succeed actually get through. Both are pure, so a draw is
    // made only for a probe that can be answered: most targets are silent.
    const ProtoMask answers = answers_in_p(target, date);
    bool responded = false;
    // ICMP probe, retransmitted once (ZMap -P2 style).
    for (int attempt = 0; attempt < 2 && !responded; ++attempt) {
      ++*probes;
      if (mask_has(answers, Proto::Icmp) && !lost(target, date, attempt * 2))
        responded = true;
    }
    // TCP/80 probe (merged with ICMP).
    if (!responded) {
      ++*probes;
      if (mask_has(answers, Proto::Tcp80) && !lost(target, date, 1))
        responded = true;
    }
    if (responded) mask |= static_cast<std::uint16_t>(1u << i);
    // Short-circuit for clearly non-aliased candidates: if the first two
    // sub-prefixes are both silent, the prefix cannot be fully responsive
    // (double probe loss on both is ~1e-8). Candidates that show life keep
    // getting all 16 probes so that history merging sees every bit —
    // otherwise a single lost probe would hide the remaining sub-prefixes
    // from the merge.
    if (i == 1 && mask == 0) return mask;
  }
  return mask;
}

AliasDetector::Detection AliasDetector::finalize(
    std::span<const Prefix> cands, std::span<const std::uint16_t> masks,
    std::uint64_t probes) const {
  Detection det;
  det.candidates_tested = cands.size();
  det.probes_sent = probes;

  std::vector<Prefix> aliased;
  for (std::size_t i = 0; i < cands.size(); ++i)
    if (masks[i] == 0xffff) aliased.push_back(cands[i]);
  // Aggregate: drop candidates inside a shorter aliased prefix. In
  // (base, len) order a prefix sorts before everything it contains, and
  // kept prefixes are disjoint, so only the last kept one can contain the
  // next candidate.
  std::sort(aliased.begin(), aliased.end());
  for (const auto& p : aliased)
    if (det.aliased.empty() || !det.aliased.back().contains(p))
      det.aliased.push_back(p);
  det.aliased_set = PrefixSet(det.aliased);
  // Published order (aliased_per_scan, aliased.txt, the archive): shortest
  // first.
  std::sort(det.aliased.begin(), det.aliased.end(),
            [](const Prefix& a, const Prefix& b) {
              if (a.len() != b.len()) return a.len() < b.len();
              return a < b;
            });
  if (m_rounds_ != nullptr) {
    m_rounds_->inc();
    m_candidates_->add(det.candidates_tested);
    m_probes_->add(probes);
    m_aliased_->add(det.aliased.size());
    m_probes_per_round_->record(probes);
  }
  return det;
}

std::vector<std::uint16_t> AliasDetector::probe_round(
    const World& world, std::span<const Prefix> cands, ScanDate date,
    std::uint64_t* probes) const {
  // Masks land in position-addressed slots and per-chunk probe counters
  // are summed in chunk order, so the round is identical for any thread
  // count (probe loss is a pure function of the target, not of timing).
  // Candidates are in (base, len) order and the responsive ones — 16
  // targets each against 2 for a silent one — cluster, so one chunk per
  // thread would leave one thread most of the round: the pool balances
  // kChunksPerThread chunks per thread instead.
  constexpr std::size_t kChunksPerThread = 16;
  ThreadPool* pool = pool_.get();
  const std::size_t chunks =
      parallel_chunks(pool, cands.size(), kChunksPerThread);
  std::vector<std::uint16_t> masks(cands.size());
  std::vector<std::uint64_t> chunk_probes(chunks, 0);
  parallel_for(pool, cands.size(), chunks,
               [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                 std::uint64_t local = 0;
                 for (std::size_t i = lo; i < hi; ++i)
                   masks[i] = probe_mask(world, cands[i], date, &local);
                 chunk_probes[chunk] = local;
               });
  for (const std::uint64_t c : chunk_probes) *probes += c;
  return masks;
}

AliasDetector::Detection AliasDetector::detect(const World& world,
                                               std::span<const Ipv6> input,
                                               ScanDate date) {
  // Volatile: wall-clock profiling of the round's two costly parts; the
  // stable record of the round is alias.apd_round below.
  Span cand_span = trace_span(cfg_.metrics, "alias.candidates", SpanCat::kAlias,
                              Stability::kVolatile);
  auto cands = candidates(world.rib(), input, cfg_);
  cand_span.attr("candidates", static_cast<std::uint64_t>(cands.size()));
  cand_span.end();
  Span probe_span = trace_span(cfg_.metrics, "alias.probe_round",
                               SpanCat::kAlias, Stability::kVolatile);
  std::uint64_t probes = 0;
  auto masks = probe_round(world, cands, date, &probes);
  probe_span.attr("probes", probes);
  probe_span.end();
  Span span = trace_span(cfg_.metrics, "alias.apd_round", SpanCat::kAlias);

  // Merge with up to `history` previous rounds: a sub-prefix counts as
  // responsive if it responded in any merged round. Every round's
  // candidates are sorted, so each merge is one forward join.
  std::vector<std::uint16_t> merged = masks;
  for (const Round& old : history_) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      while (j < old.cands.size() && old.cands[j] < cands[i]) ++j;
      if (j < old.cands.size() && old.cands[j] == cands[i])
        merged[i] |= old.masks[j];
    }
  }
  Detection det = finalize(cands, merged, probes);

  history_.push_back(Round{std::move(cands), std::move(masks)});
  while (history_.size() > static_cast<std::size_t>(cfg_.history))
    history_.pop_front();

  span.attr("scan", date.index)
      .attr("candidates", det.candidates_tested)
      .attr("probes", probes)
      .attr("aliased", static_cast<std::uint64_t>(det.aliased.size()));
  return det;
}

}  // namespace sixdust
