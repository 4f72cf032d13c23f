#include "traceroute/yarrp.hpp"

#include "core/parallel.hpp"
#include "netbase/addr_index.hpp"
#include "obs/trace.hpp"
#include "scanner/cyclic.hpp"

namespace sixdust {

void Yarrp::init_metrics() {
  MetricsRegistry* reg = cfg_.metrics;
  if (reg == nullptr) return;
  m_runs_ = &reg->counter("traceroute.runs", Stability::kStable);
  m_targets_ = &reg->counter("traceroute.targets_traced", Stability::kStable);
  m_probes_ = &reg->counter("traceroute.probes_sent", Stability::kStable);
  m_hops_ = &reg->counter("traceroute.hops_discovered", Stability::kStable);
  m_gaps_ = &reg->counter("traceroute.gaps", Stability::kStable);
}

void Yarrp::record_run(const TraceResult& r) const {
  if (m_runs_ == nullptr) return;
  m_runs_->inc();
  m_targets_->add(r.targets_traced);
  m_probes_->add(r.probes_sent);
  m_hops_->add(r.responsive_hops.size());
  m_gaps_->add(r.last_hops_unreachable.size());
}

void Yarrp::trace_slice(const World& world, std::span<const Ipv6> sample,
                        ScanDate date, TraceResult& out) const {
  AddrIndex seen;  // over out.responsive_hops
  for (const Ipv6& t : sample) {
    ++out.targets_traced;
    const World::Path path = world.path_to(t, date);
    const std::span<const World::Hop> hops = path.hops();

    // Yarrp sends one probe per TTL in randomized order; we account for
    // the probes and collect the responsive hops.
    out.probes_sent += static_cast<std::uint64_t>(
        hops.size() < static_cast<std::size_t>(cfg_.max_ttl)
            ? hops.size()
            : static_cast<std::size_t>(cfg_.max_ttl));

    const World::Hop* last_responsive = nullptr;
    bool target_responded = false;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const auto& hop = hops[i];
      if (!hop.responds) continue;
      const bool is_target = i + 1 == hops.size();
      if (is_target) {
        target_responded = true;
      } else {
        last_responsive = &hop;
      }
      seen.insert(out.responsive_hops, hop.addr);
    }
    if (!target_responded && last_responsive != nullptr)
      out.last_hops_unreachable.push_back(last_responsive->addr);
  }
}

Yarrp::TraceResult Yarrp::trace(const World& world,
                                std::span<const Ipv6> targets,
                                ScanDate date) const {
  // Budget-limited sample in permuted order (stateless, like Yarrp's
  // random probing order). Drawing the sample is a cheap permutation
  // walk; only the tracing itself is worth parallelizing.
  CyclicPermutation perm(targets.empty() ? 1 : targets.size(),
                         hash_combine(cfg_.seed, date.index));
  const std::size_t count =
      targets.size() < cfg_.target_budget ? targets.size() : cfg_.target_budget;
  std::vector<Ipv6> sample;
  sample.reserve(count);
  for (std::size_t k = 0; k < count; ++k) sample.push_back(targets[perm.next()]);

  ThreadPool* pool = pool_.get();
  const std::size_t chunks = parallel_chunks(pool, count);
  TraceResult result;
  if (chunks <= 1) {
    trace_slice(world, sample, date, result);
  } else {
    // Each slice dedups its own hops in first-seen order; merging the
    // slice columns in slice order through one more index over the result
    // column reconstructs the sequential discovery order exactly (a hop's
    // first occurrence lives in the earliest slice that saw it).
    auto parts = ordered_map<TraceResult>(pool, chunks, [&](std::size_t c) {
      const auto [lo, hi] = chunk_range(count, chunks, c);
      TraceResult local;
      trace_slice(world,
                  std::span<const Ipv6>(sample).subspan(lo, hi - lo), date,
                  local);
      return local;
    });
    std::size_t hops_bound = 0;
    for (const TraceResult& part : parts)
      hops_bound += part.responsive_hops.size();
    result.responsive_hops.reserve(hops_bound);
    AddrIndex seen;  // over result.responsive_hops
    seen.reserve(result.responsive_hops, hops_bound);
    for (TraceResult& part : parts) {
      result.targets_traced += part.targets_traced;
      result.probes_sent += part.probes_sent;
      for (const Ipv6& hop : part.responsive_hops)
        seen.insert(result.responsive_hops, hop);
      result.last_hops_unreachable.insert(
          result.last_hops_unreachable.end(),
          part.last_hops_unreachable.begin(),
          part.last_hops_unreachable.end());
    }
  }

  record_run(result);
  trace_span(cfg_.metrics, "traceroute.run", SpanCat::kTraceroute)
      .attr("scan", date.index)
      .attr("targets", result.targets_traced)
      .attr("probes", result.probes_sent)
      .attr("hops", static_cast<std::uint64_t>(result.responsive_hops.size()))
      .attr("gaps", static_cast<std::uint64_t>(
                        result.last_hops_unreachable.size()));
  return result;
}

}  // namespace sixdust
