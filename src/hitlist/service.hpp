#pragma once

#include <functional>
#include <memory>

#include "alias/apd.hpp"
#include "core/thread_pool.hpp"
#include "hitlist/eligible_column.hpp"
#include "hitlist/history.hpp"
#include "hitlist/input_db.hpp"
#include "hitlist/sources.hpp"
#include "obs/metrics.hpp"
#include "scanner/zmap6.hpp"
#include "traceroute/yarrp.hpp"

namespace sixdust {

/// The IPv6 Hitlist service pipeline (Fig. 1 of the paper), including the
/// GFW filter this paper adds:
///
///   input sources -> blocklist -> aliased-prefix detection ->
///   30-day-unresponsive filter -> ZMapv6 scans (5 protocols) ->
///   [GFW filter on UDP/53 output] -> Yarrp traceroutes (feed back as input)
///
/// Run step() once per scan date; all state (input accumulation, alias
/// knowledge, exclusion pool, taint records, per-scan history) is kept in
/// the service, mirroring the long-running real deployment.
class HitlistService {
 public:
  struct Config {
    std::uint64_t seed = 21;
    Zmap6::Config scanner{.seed = 7, .loss = 0.01, .retries = 1};
    AliasDetector::Config apd{};
    Yarrp::Config traceroute{};
    SourceCollector::Config sources{};
    /// Scans an address may stay unresponsive before permanent exclusion
    /// ("30 days" of daily scans; ~3 monthly scans here so that ordinary
    /// availability churn does not evict live hosts).
    int unresponsive_scans = 3;
    /// The GFW filter stage: disabled reproduces the *published* (spiky)
    /// timeline; when enabled it activates at `gfw_filter_from_scan`
    /// (Feb 2022 — the moment the spike collapses in Fig. 3).
    bool enable_gfw_filter = true;
    int gfw_filter_from_scan = 43;
    std::vector<Prefix> blocklist_prefixes;
    /// Worker threads for the scan/APD/traceroute stages; overrides their
    /// own `threads`. 0 = one per hardware core, 1 = the exact sequential
    /// path. Output is byte-identical for every value (DESIGN.md §7).
    unsigned threads = 1;
    /// Run telemetry registry shared by every pipeline stage. Null (the
    /// default) makes the service own a private registry — metrics are
    /// always on; injection exists so callers can aggregate several
    /// services or assert on a registry they control (see DESIGN.md §9).
    MetricsRegistry* metrics = nullptr;
    /// Span recorder for the run (borrowed; see DESIGN.md §10). Null (the
    /// default) disables tracing — spans cost nothing when off. When set,
    /// the service attaches it to the metrics registry for its lifetime
    /// and drives the recorder's simulated clock from the scan timeline.
    TraceRecorder* tracer = nullptr;
  };

  explicit HitlistService(Config cfg);
  ~HitlistService();

  struct ScanOutcome {
    ScanDate date;
    std::size_t input_total = 0;
    std::size_t scan_targets = 0;
    std::size_t aliased_count = 0;
    std::size_t excluded_total = 0;
    /// Addresses that hit the 30-day-unresponsive limit *this* scan and
    /// moved into the permanent exclusion pool.
    std::size_t newly_excluded = 0;
    std::size_t responsive_any = 0;
    std::array<std::size_t, kProtoCount> responsive_per_proto{};
  };

  /// One service iteration.
  ScanOutcome step(const World& world, ScanDate date);

  /// Epoch-barrier hook: invoked after a step's state is fully folded
  /// (history recorded, metrics flushed) and before the next step begins.
  /// This is the daemon's publication point — the hook may freeze service
  /// state (it runs on the epoch thread, never concurrently with a step)
  /// but must not mutate it.
  using EpochHook = std::function<void(const ScanOutcome&)>;

  /// Run scans 0 .. scans-1; `on_epoch`, when set, fires at each epoch
  /// barrier. A batch run and a daemon run differ *only* in this hook, so
  /// everything stable is byte-identical between the two (asserted by the
  /// serve differential tests).
  void run(const World& world, int scans, const EpochHook& on_epoch = {});

  // --- accumulated state ----------------------------------------------------

  [[nodiscard]] const InputDb& input() const { return input_; }
  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] GfwFilter& gfw() { return gfw_; }
  [[nodiscard]] const GfwFilter& gfw() const { return gfw_; }
  [[nodiscard]] const PrefixSet& aliased() const { return aliased_; }
  /// The latest scan's aliased prefixes — a view of aliased_per_scan()'s
  /// last entry (the growth log owns the storage; no per-scan copy).
  [[nodiscard]] const std::vector<Prefix>& aliased_list() const {
    static const std::vector<Prefix> kEmpty;
    return aliased_per_scan_.empty() ? kEmpty : aliased_per_scan_.back();
  }
  /// Aliased-prefix count per recorded scan (Fig. 5 growth analysis).
  [[nodiscard]] const std::vector<std::vector<Prefix>>& aliased_per_scan()
      const {
    return aliased_per_scan_;
  }
  /// Addresses permanently excluded by the 30-day filter — the paper's
  /// 638.6 M-strong re-scan candidate pool (Sec. 6.1).
  [[nodiscard]] const std::vector<Ipv6>& unresponsive_pool() const {
    return excluded_order_;
  }
  [[nodiscard]] bool excluded(const Ipv6& a) const {
    const InputDb::Meta* m = input_.find(a);
    return m != nullptr && m->excluded;
  }
  [[nodiscard]] const PrefixSet& blocklist() const { return blocklist_; }

  /// The shared stage executor (null when threads resolve to 1). The
  /// daemon hosts its reader lanes on this pool so query serving and the
  /// scan stages share one set of workers (see src/serve/server.hpp).
  [[nodiscard]] const std::shared_ptr<ThreadPool>& pool() const {
    return pool_;
  }

  /// The run-telemetry registry (the injected one, or the service's own).
  /// Snapshot it after run()/step() for the RunReport / --metrics-out
  /// exports; a stable-only export is byte-identical across thread counts.
  [[nodiscard]] MetricsRegistry& metrics() const { return *metrics_; }

  /// The scan target list for `date` given current state (blocklist,
  /// exclusion; before alias filtering), in input insertion order.
  [[nodiscard]] std::vector<Ipv6> eligible_targets() const;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  friend class ServiceArchive;

  /// Per-step service metrics, resolved once at construction.
  struct SvcMetrics {
    Counter* steps = nullptr;
    Gauge* input_total = nullptr;
    Gauge* input_blocked = nullptr;
    Gauge* scan_targets = nullptr;
    Gauge* aliased_prefixes = nullptr;
    Gauge* excluded_total = nullptr;
    Counter* newly_excluded = nullptr;
    Counter* responsive_any = nullptr;
    std::array<Counter*, kProtoCount> responsive{};
    /// New-input attribution, indexed by SourceTag bit position.
    std::array<Counter*, 8> input_new{};
    Histogram* responsive_per_scan = nullptr;
  };

  void init_metrics();
  void record_new_input(std::uint16_t tags);
  void record_outcome(const ScanOutcome& outcome);

  Config cfg_;
  /// Owned when cfg_.metrics is null; metrics_ always points at the live
  /// registry. Declared before the pipeline stages so their configs can
  /// carry the pointer.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  /// True when the constructor attached cfg_.tracer to the registry; the
  /// destructor then detaches it so an injected registry never keeps a
  /// pointer past the recorder's lifetime.
  bool attached_tracer_ = false;
  SvcMetrics svc_metrics_;
  /// Shared executor for all pipeline stages (null when threads resolves
  /// to 1); injected into zmap_/apd_/yarrp_ so nested fan-out reuses the
  /// same workers instead of oversubscribing.
  std::shared_ptr<ThreadPool> pool_;
  PrefixSet blocklist_;
  SourceCollector sources_;
  AliasDetector apd_;
  Zmap6 zmap_;
  Yarrp yarrp_;
  GfwFilter gfw_;

  InputDb input_;
  History history_;
  PrefixSet aliased_;
  std::vector<std::vector<Prefix>> aliased_per_scan_;
  std::vector<Ipv6> excluded_order_;
  /// The eligible rows sorted by address and in insertion order, carried
  /// across steps (the APD input, the alias filter's merge side and the
  /// step's target walk; not archived — a restored service rebuilds it on
  /// its first step).
  EligibleColumn eligible_;
  /// Alias-filter verdict by input row, reused across steps.
  std::vector<std::uint8_t> covered_;
};

}  // namespace sixdust
