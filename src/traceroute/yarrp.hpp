#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "topo/world.hpp"

namespace sixdust {

/// Yarrp-style randomized high-speed traceroute. Unlike classic traceroute,
/// Yarrp probes (target, TTL) pairs in a stateless random permutation and
/// reconstructs paths afterwards. The hitlist service runs it against every
/// scan target to harvest router addresses as new input — and this harvest
/// of rotating last-hop addresses inside censored networks is what fed the
/// GFW spike (paper Sec. 4.2).
class Yarrp {
 public:
  struct Config {
    std::uint64_t seed = 9;
    int max_ttl = 16;
    /// Per-scan probe budget: at most this many *targets* are traced
    /// (the real service's multi-day scan runtime translates to a bounded
    /// traceroute rate).
    std::size_t target_budget = 20000;
    /// Tracer threads: 0 = hardware concurrency, 1 = sequential. Results
    /// are merged in slice order with first-seen dedup, so any thread
    /// count reproduces the sequential hop order exactly.
    unsigned threads = 1;
    /// Trace telemetry sink (null = no metrics): targets, probes, hops
    /// discovered, and gaps (traces whose target never answered). Stable.
    MetricsRegistry* metrics = nullptr;
  };

  struct TraceResult {
    /// Every responsive hop address discovered, deduplicated, in order of
    /// first discovery.
    std::vector<Ipv6> responsive_hops;
    /// Last responsive hop per traced target that did not itself respond.
    std::vector<Ipv6> last_hops_unreachable;
    std::size_t targets_traced = 0;
    std::uint64_t probes_sent = 0;
  };

  explicit Yarrp(Config cfg)
      : cfg_(cfg), pool_(ThreadPool::create(cfg.threads)) {
    init_metrics();
  }

  /// Share an executor with the other probe stages (null = sequential).
  void set_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

  /// Trace a sample of `targets` (budget-limited, deterministic sample).
  [[nodiscard]] TraceResult trace(const World& world,
                                  std::span<const Ipv6> targets,
                                  ScanDate date) const;

 private:
  /// Trace `sample` in order into an empty `out`, deduplicating hops
  /// against out.responsive_hops only (local first-seen order).
  void trace_slice(const World& world, std::span<const Ipv6> sample,
                   ScanDate date, TraceResult& out) const;

  void init_metrics();
  void record_run(const TraceResult& r) const;

  Config cfg_;
  std::shared_ptr<ThreadPool> pool_;

  Counter* m_runs_ = nullptr;
  Counter* m_targets_ = nullptr;
  Counter* m_probes_ = nullptr;
  Counter* m_hops_ = nullptr;
  Counter* m_gaps_ = nullptr;
};

}  // namespace sixdust
