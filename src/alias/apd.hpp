#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "asdb/rib.hpp"
#include "core/thread_pool.hpp"
#include "netbase/prefix_set.hpp"
#include "obs/metrics.hpp"
#include "topo/world.hpp"

namespace sixdust {

/// Multi-level aliased prefix detection — the hitlist service's filter as
/// described in Sec. 3.1 of the paper (after Gasser et al. 2018, extending
/// Murdock et al.'s fixed-/96 test):
///
///  * candidate prefixes are (a) every BGP-announced prefix, (b) every /64
///    with at least one input address, and (c) prefixes longer than /64 in
///    4-bit steps holding >= 100 input addresses;
///  * for each candidate, one pseudo-random address inside each of its 16
///    four-bit more-specifics is probed (ICMP and TCP/80);
///  * responses are merged across the two protocols *and* with the previous
///    three detection rounds, so probe loss does not flip labels;
///  * a candidate whose 16 sub-prefixes all responded is aliased;
///  * aliased candidates covered by a shorter aliased prefix are subsumed.
class AliasDetector {
 public:
  struct Config {
    std::uint64_t seed = 13;
    /// Input-address threshold for candidates longer than /64.
    std::size_t long_prefix_min_addrs = 100;
    /// Longest candidate length considered (the paper saw /28 .. /120).
    int max_len = 120;
    /// Number of previous rounds merged into the decision.
    int history = 3;
    /// Channel loss applied to detection probes.
    double loss = 0.01;
    /// Prober threads: 0 = hardware concurrency, 1 = sequential. The
    /// per-candidate probe masks are position-addressed, so any thread
    /// count yields identical detections.
    unsigned threads = 1;
    /// Detection telemetry sink (null = no metrics). Round/candidate/probe
    /// counters are stable across thread counts.
    MetricsRegistry* metrics = nullptr;
  };

  explicit AliasDetector(Config cfg)
      : cfg_(cfg), pool_(ThreadPool::create(cfg.threads)) {
    init_metrics();
  }

  /// Share an executor with the other probe stages (null = sequential).
  void set_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

  /// Candidate prefixes per the three rules above, sorted and unique. Each
  /// distinct input address counts once towards rule (c)'s threshold.
  /// Strictly ascending input (the service's sorted eligible column) is
  /// read in place, with no copy and no sort.
  [[nodiscard]] static std::vector<Prefix> candidates(
      const Rib& rib, std::span<const Ipv6> input, const Config& cfg);

  struct Detection {
    /// Aliased prefixes after aggregation (subsumed candidates removed).
    std::vector<Prefix> aliased;
    /// Same content as a coverage set, for filtering input addresses.
    PrefixSet aliased_set;
    std::uint64_t candidates_tested = 0;
    std::uint64_t probes_sent = 0;
  };

  /// Run one detection round on `date`, merging with the detector's stored
  /// history (call once per scan to mirror the service's cadence). A fresh
  /// detector's first call is a single round with nothing to merge.
  [[nodiscard]] Detection detect(const World& world,
                                 std::span<const Ipv6> input, ScanDate date);

  /// One round's probing, without history or verdicts: for each of
  /// `cands`, the bitmask of its 16 sub-prefixes that responded
  /// (ICMP|TCP80), aligned with `cands`; adds the probes issued to
  /// `*probes`. Runs on the pool when one is set, with the same masks and
  /// count for any thread count.
  [[nodiscard]] std::vector<std::uint16_t> probe_round(
      const World& world, std::span<const Prefix> cands, ScanDate date,
      std::uint64_t* probes) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// Bitmask of the 16 sub-prefixes of `p` that responded (ICMP|TCP80).
  [[nodiscard]] std::uint16_t probe_mask(const World& world, const Prefix& p,
                                         ScanDate date,
                                         std::uint64_t* probes) const;

  /// Verdicts for `cands` from their merged `masks` (aligned by index).
  [[nodiscard]] Detection finalize(std::span<const Prefix> cands,
                                   std::span<const std::uint16_t> masks,
                                   std::uint64_t probes) const;

  [[nodiscard]] bool lost(const Ipv6& a, ScanDate d, int proto_tag) const;

  void init_metrics();

  Config cfg_;
  std::shared_ptr<ThreadPool> pool_;
  /// One past round: its sorted candidates and their masks.
  struct Round {
    std::vector<Prefix> cands;
    std::vector<std::uint16_t> masks;
  };
  std::deque<Round> history_;

  Counter* m_rounds_ = nullptr;
  Counter* m_candidates_ = nullptr;
  Counter* m_probes_ = nullptr;
  Counter* m_aliased_ = nullptr;
  Histogram* m_probes_per_round_ = nullptr;
};

}  // namespace sixdust
