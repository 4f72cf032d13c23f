#include "hitlist/service.hpp"

#include <algorithm>
#include <array>

#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "scanner/rate_limit.hpp"

namespace sixdust {

namespace {

/// SourceTag bit position -> attribution label (see topo/behavior.hpp).
constexpr const char* kSourceNames[8] = {
    "dns_aaaa", "ct_log",    "ripe_atlas", "traceroute",
    "rdns",     "ns_mx",     "caida_ark",  "det"};

}  // namespace

HitlistService::HitlistService(Config cfg)
    : cfg_(std::move(cfg)),
      owned_metrics_(cfg_.metrics != nullptr ? nullptr : new MetricsRegistry),
      metrics_(cfg_.metrics != nullptr ? cfg_.metrics : owned_metrics_.get()),
      blocklist_(cfg_.blocklist_prefixes),
      sources_(cfg_.sources),
      apd_([this] {
        AliasDetector::Config c = cfg_.apd;
        c.metrics = metrics_;
        return c;
      }()),
      zmap_([this] {
        Zmap6::Config c = cfg_.scanner;
        c.blocklist = &blocklist_;
        c.metrics = metrics_;
        return c;
      }()),
      yarrp_([this] {
        Yarrp::Config c = cfg_.traceroute;
        c.metrics = metrics_;
        return c;
      }()) {
  init_metrics();
  if (cfg_.tracer != nullptr) {
    metrics_->set_tracer(cfg_.tracer);
    attached_tracer_ = true;
  }
  gfw_.set_metrics(metrics_);
  pool_ = ThreadPool::create(cfg_.threads);
  if (pool_) pool_->set_metrics(metrics_);
  zmap_.set_pool(pool_);
  apd_.set_pool(pool_);
  yarrp_.set_pool(pool_);
}

HitlistService::~HitlistService() {
  if (attached_tracer_) metrics_->set_tracer(nullptr);
}

void HitlistService::init_metrics() {
  MetricsRegistry& reg = *metrics_;
  svc_metrics_.steps = &reg.counter("service.steps", Stability::kStable);
  svc_metrics_.input_total = &reg.gauge("service.input_total",
                                        Stability::kStable);
  svc_metrics_.input_blocked = &reg.gauge("service.input_blocked",
                                          Stability::kStable);
  svc_metrics_.scan_targets = &reg.gauge("service.scan_targets",
                                         Stability::kStable);
  svc_metrics_.aliased_prefixes = &reg.gauge("service.aliased_prefixes",
                                             Stability::kStable);
  svc_metrics_.excluded_total = &reg.gauge("service.excluded_total",
                                           Stability::kStable);
  svc_metrics_.newly_excluded = &reg.counter("service.newly_excluded",
                                             Stability::kStable);
  svc_metrics_.responsive_any = &reg.counter("service.responsive{proto=any}",
                                             Stability::kStable);
  for (Proto p : kAllProtos)
    svc_metrics_.responsive[static_cast<std::size_t>(proto_index(p))] =
        &reg.counter("service.responsive{proto=" + proto_token(p) + "}",
                     Stability::kStable);
  for (std::size_t bit = 0; bit < svc_metrics_.input_new.size(); ++bit)
    svc_metrics_.input_new[bit] = &reg.counter(
        std::string("service.input_new{source=") + kSourceNames[bit] + "}",
        Stability::kStable);
  static constexpr std::uint64_t kRespBounds[] = {16,   64,    256,  1024,
                                                  4096, 16384, 65536};
  svc_metrics_.responsive_per_scan =
      &reg.histogram("service.responsive_per_scan", kRespBounds,
                     Stability::kStable);
}

void HitlistService::record_new_input(std::uint16_t tags) {
  for (std::size_t bit = 0; bit < svc_metrics_.input_new.size(); ++bit)
    if (tags & (1u << bit)) svc_metrics_.input_new[bit]->inc();
}

void HitlistService::record_outcome(const ScanOutcome& outcome) {
  SvcMetrics& m = svc_metrics_;
  m.steps->inc();
  m.input_total->set(static_cast<std::int64_t>(outcome.input_total));
  m.input_blocked->set(static_cast<std::int64_t>(input_.blocked_count()));
  m.scan_targets->set(static_cast<std::int64_t>(outcome.scan_targets));
  m.aliased_prefixes->set(static_cast<std::int64_t>(outcome.aliased_count));
  m.excluded_total->set(static_cast<std::int64_t>(outcome.excluded_total));
  m.newly_excluded->add(outcome.newly_excluded);
  m.responsive_any->add(outcome.responsive_any);
  for (std::size_t p = 0; p < kProtoCount; ++p)
    m.responsive[p]->add(outcome.responsive_per_proto[p]);
  m.responsive_per_scan->record(outcome.responsive_any);
}

std::vector<Ipv6> HitlistService::eligible_targets() const {
  const auto& all = input_.addresses();
  std::vector<Ipv6> targets;
  targets.reserve(eligible_.insertion_rows().size());
  for (const std::uint32_t r : eligible_.insertion_rows())
    targets.push_back(all[r]);
  eligible_.for_each_new_row(
      input_, [&](std::uint32_t r) { targets.push_back(all[r]); });
  return targets;
}

HitlistService::ScanOutcome HitlistService::step(const World& world,
                                                 ScanDate date) {
  // The step span encloses every phase span below; its simulated window
  // covers the whole scan because each probe stage advances the
  // recorder's clock by its simulated duration before closing its phase.
  Span step_span = trace_span(metrics_, "service.step", SpanCat::kService);
  step_span.attr("scan", date.index);
  PhaseTimer step_timer(metrics_, "service.phase.step");

  // 1. Input collection (all sources re-deliver every scan; dedup). New
  // addresses are attributed to every source tag that delivered them.
  {
    PhaseTimer t(metrics_, "service.phase.inputs");
    for (const auto& known : sources_.collect(world, date))
      if (input_.add(known.addr, known.tags, date.index, &blocklist_))
        record_new_input(known.tags);
  }

  // Phases 2, 4 and 6 carry volatile spans only: wall-clock attribution
  // for profiling, with no stable .calls counter to shift the goldens.
  // 2. Exclusion + blocklist filters: the eligible column caught up with
  // the rows added since the last step, then its rows in insertion order
  // (the scan and traceroute order) with their addresses.
  Span eligible_span = trace_span(metrics_, "service.phase.eligible",
                                  SpanCat::kService, Stability::kVolatile);
  eligible_.catch_up(input_);
  std::vector<std::uint32_t> trows(eligible_.insertion_rows().begin(),
                                   eligible_.insertion_rows().end());
  std::vector<Ipv6> targets;
  targets.reserve(trows.size());
  for (const std::uint32_t r : trows) targets.push_back(input_.addresses()[r]);
  eligible_span.end();

  // 3. Multi-level aliased prefix detection (with 3-round history), on the
  // column: already sorted, so candidate enumeration skips the sort.
  PhaseTimer apd_timer(metrics_, "service.phase.apd");
  auto detection = apd_.detect(world, eligible_.addrs(), date);
  const double apd_seconds =
      scan_duration_seconds(detection.probes_sent, cfg_.scanner.pps);
  if (TraceRecorder* tr = metrics_->tracer())
    tr->sim_advance_seconds(apd_seconds);
  apd_timer.stop();
  aliased_ = std::move(detection.aliased_set);
  aliased_per_scan_.push_back(std::move(detection.aliased));

  // 4. Aliased-prefix filter.
  Span alias_filter_span =
      trace_span(metrics_, "service.phase.alias_filter", SpanCat::kService,
                 Stability::kVolatile);
  // One merge pass of the column against the aliased set marks the covered
  // rows; the targets keep insertion order.
  if (!aliased_.empty()) {
    covered_.resize(input_.size());
    eligible_.mark_covered(aliased_.prefixes(), covered_);
    std::size_t kept = 0;
    for (std::size_t k = 0; k < targets.size(); ++k) {
      if (covered_[trows[k]] != 0) continue;
      targets[kept] = targets[k];
      trows[kept] = trows[k];
      ++kept;
    }
    targets.resize(kept);
    trows.resize(kept);
  }
  alias_filter_span.end();

  // 5. ZMapv6 scans, one per protocol, plus the UDP/53 GFW stage.
  // Response masks by target, indexed by each record's scan position.
  std::vector<ProtoMask> responsive(targets.size(), 0);
  History::Entry entry;
  entry.scan_index = date.index;
  // All probe stages share one rate-limited sender; APD probes ran above.
  double duration_seconds = apd_seconds;

  // One multi-protocol scan resolves each target once and fans the five
  // protocol walks out over the pool. Results are then consumed strictly
  // in kAllProtos order so that GFW state mutation and float duration sums
  // stay deterministic.
  PhaseTimer scan_timer(metrics_, "service.phase.scan");
  std::vector<ScanResult> per_proto =
      zmap_.scan(world, targets, kAllProtoMask, date);

  for (std::size_t pi = 0; pi < kAllProtos.size(); ++pi) {
    const Proto p = kAllProtos[pi];
    ScanResult& result = per_proto[pi];
    duration_seconds += result.duration_seconds;
    if (p == Proto::Udp53) {
      const bool filter_on = cfg_.enable_gfw_filter &&
                             date.index >= cfg_.gfw_filter_from_scan;
      if (filter_on) {
        for (const auto& rec : gfw_.filter_scan(result))
          responsive[rec.index] |= proto_bit(p);
        continue;
      }
      // Published behaviour: every response counts — but record the
      // injection evidence for the retroactive cleaning analysis.
      gfw_.observe_scan(result);
    }
    for (const auto& rec : result.responsive)
      responsive[rec.index] |= proto_bit(p);
  }
  // Advance the simulated clock by the scan phase's share (deterministic:
  // the per-protocol durations were folded in kAllProtos order above), so
  // the scan phase span covers it and later phases start after it.
  if (TraceRecorder* tr = metrics_->tracer())
    tr->sim_advance_seconds(duration_seconds - apd_seconds);
  scan_timer.stop();

  // 6. 30-day-unresponsive filter bookkeeping and the history rows.
  Span bookkeeping_span =
      trace_span(metrics_, "service.phase.bookkeeping", SpanCat::kService,
                 Stability::kVolatile);
  std::size_t newly_excluded = 0;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const std::uint32_t row = trows[k];
    InputDb::Meta& m = input_.meta(row);
    if (responsive[k] != 0) {
      m.misses = 0;
      entry.responsive.emplace_back(targets[k], responsive[k]);
    } else if (++m.misses >= cfg_.unresponsive_scans) {
      m.excluded = true;
      excluded_order_.push_back(targets[k]);
      ++newly_excluded;
    }
  }
  std::sort(entry.responsive.begin(), entry.responsive.end());
  eligible_.drop(input_, std::span(excluded_order_).last(newly_excluded));
  bookkeeping_span.end();

  // 7. Yarrp traceroutes toward the (alias-filtered) targets; discovered
  // router addresses become next scan's input.
  PhaseTimer trace_timer(metrics_, "service.phase.traceroute");
  auto traces = yarrp_.trace(world, targets, date);
  for (const auto& hop : traces.responsive_hops)
    if (input_.add(hop, kSrcTraceroute, date.index, &blocklist_))
      record_new_input(kSrcTraceroute);
  const double trace_seconds =
      scan_duration_seconds(traces.probes_sent, cfg_.scanner.pps);
  if (TraceRecorder* tr = metrics_->tracer())
    tr->sim_advance_seconds(trace_seconds);
  trace_timer.stop();
  duration_seconds += trace_seconds;

  // 8. Record history.
  entry.input_total = input_.size();
  entry.scan_targets = targets.size();
  entry.aliased_prefixes = aliased_list().size();
  entry.duration_days = duration_seconds / 86400.0;

  ScanOutcome outcome;
  outcome.date = date;
  outcome.input_total = input_.size();
  outcome.scan_targets = targets.size();
  outcome.aliased_count = aliased_list().size();
  outcome.excluded_total = excluded_order_.size();
  outcome.newly_excluded = newly_excluded;
  outcome.responsive_any = entry.responsive.size();
  for (const auto& [a, mask] : entry.responsive)
    for (Proto p : kAllProtos)
      if (mask_has(mask, p)) ++outcome.responsive_per_proto[proto_index(p)];

  step_span.attr("input_total", outcome.input_total)
      .attr("targets", outcome.scan_targets)
      .attr("aliased", outcome.aliased_count)
      .attr("responsive_any", outcome.responsive_any)
      .attr("newly_excluded", outcome.newly_excluded);

  history_.record(std::move(entry));
  record_outcome(outcome);
  return outcome;
}

void HitlistService::run(const World& world, int scans,
                         const EpochHook& on_epoch) {
  for (int i = 0; i < scans; ++i) {
    const ScanOutcome outcome = step(world, ScanDate{i});
    if (on_epoch) on_epoch(outcome);
  }
}

}  // namespace sixdust
