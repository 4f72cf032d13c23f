#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_set>

#include "alias/apd.hpp"
#include "core/thread_pool.hpp"
#include "hitlist/archive.hpp"
#include "hitlist/report_gen.hpp"
#include "hitlist/service.hpp"
#include "netbase/addrio.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "serve/snapshot_manager.hpp"
#include "serving.hpp"
#include "topo/world_builder.hpp"

namespace perfbench {

using namespace sixdust;
using serve::EpochSnapshot;

namespace {

struct Shape {
  double world_scale;
  int scans;    // batch: scans per repetition; daemon: epochs
  bool daemon;  // queries arrive while epochs are published
};

Shape shape_of(const RunOptions& o) {
  if (o.workload == "timeline-dense")
    return o.tiny ? Shape{0.02, 6, false} : Shape{0.1, kTimelineScans, false};
  if (o.workload == "wide-early")
    return o.tiny ? Shape{0.05, 3, false} : Shape{1.0, 12, false};
  return o.tiny ? Shape{0.02, 4, true} : Shape{0.1, 24, true};
}

// Set-up runs at least kSetupRepeats times and for at least kSetupMinS.
constexpr std::size_t kSetupRepeats = 15;
constexpr double kSetupMinS = 1.0;
constexpr int kPublishRepeats = 3;  // per repetition, trace runs
// Open-loop requests per second, fixed so that commits are measured at the
// same load: a sixth of 120 000/s, the lowest closed-loop capacity
// (query_qps) this benchmark measured on any workload of the tree it was
// added to (medians 120-150k/s on a 4-vCPU VM; perfbench/README.md). At
// that load the median is the cost of one request, not of a queue.
constexpr double kQueryRate = 120000.0 / 6;

WorldConfig world_config(const RunOptions& o, const Shape& s) {
  WorldConfig wc;
  wc.seed = o.seed;
  wc.scale = s.world_scale;
  wc.tail_as_count = 200;  // sixdust-hitlist's default
  return wc;
}

HitlistService::Config service_config(const RunOptions& o) {
  HitlistService::Config sc;
  sc.threads = o.threads;
  return sc;
}

double ms(double seconds) { return seconds * 1e3; }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// --- registry counters read around each step --------------------------------

enum CounterIx : std::size_t {
  kStepNs, kInputsNs, kApdNs, kScanNs, kTraceNs,
  kScanSent0, kScanAnswered0 = kScanSent0 + kProtoCount,
  kApdTested = kScanAnswered0 + kProtoCount, kApdProbes, kApdAliased,
  kTrProbes, kTrHops, kGfwInspected, kGfwKept,
  kPoolTasks, kPoolSpins, kPoolParks, kCounterCount
};

class StepCounters {
 public:
  explicit StepCounters(MetricsRegistry& reg) {
    auto vol = [&](const char* n) {
      return &reg.counter(n, Stability::kVolatile);
    };
    auto stable = [&](const std::string& n) {
      return &reg.counter(n, Stability::kStable);
    };
    c_[kStepNs] = vol("service.phase.step.wall_ns");
    c_[kInputsNs] = vol("service.phase.inputs.wall_ns");
    c_[kApdNs] = vol("service.phase.apd.wall_ns");
    c_[kScanNs] = vol("service.phase.scan.wall_ns");
    c_[kTraceNs] = vol("service.phase.traceroute.wall_ns");
    for (Proto p : kAllProtos) {
      const auto i = static_cast<std::size_t>(proto_index(p));
      c_[kScanSent0 + i] =
          stable("scanner.probes_sent{proto=" + proto_token(p) + "}");
      c_[kScanAnswered0 + i] =
          stable("scanner.answered{proto=" + proto_token(p) + "}");
    }
    c_[kApdTested] = stable("apd.candidates_tested");
    c_[kApdProbes] = stable("apd.probes_sent");
    c_[kApdAliased] = stable("apd.aliased_verdicts");
    c_[kTrProbes] = stable("traceroute.probes_sent");
    c_[kTrHops] = stable("traceroute.hops_discovered");
    c_[kGfwInspected] = stable("gfw.records_inspected");
    c_[kGfwKept] = stable("gfw.records_kept");
    c_[kPoolTasks] = vol("pool.tasks");
    c_[kPoolSpins] = vol("pool.worker_spins");
    c_[kPoolParks] = vol("pool.worker_parks");
  }

  using Values = std::array<double, kCounterCount>;
  [[nodiscard]] Values read() const {
    Values v{};
    for (std::size_t i = 0; i < kCounterCount; ++i)
      v[i] = static_cast<double>(c_[i]->value());
    return v;
  }

 private:
  std::array<Counter*, kCounterCount> c_{};
};

/// One HitlistService::step as the benchmark saw it.
struct StepRecord {
  int index = 0;
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  double sim_days = 0;  // simulated probing time: the step's work
  StepCounters::Values delta{};
  // Benchmark timers, trace runs only.
  double eligible_ms = 0;
  double candidates_ms = 0;
  double candidates = 0;  // prefixes candidates() returned
  double alias_filter_ms = 0;
};

// --- the epoch loop ---------------------------------------------------------

/// Steps a service one scan at a time and runs the daemon's epoch barrier
/// after each step: freeze the state into an EpochSnapshot and publish it.
/// With `timers`, it also times the public calls that stand in for the
/// step's unspanned work: eligible_targets() before the step, then
/// AliasDetector::candidates() and the aliased-set filter on the targets
/// the step itself uses, and a fixed sample of World probes per protocol.
class EpochLoop {
 public:
  EpochLoop(const World& world, HitlistService& svc,
            serve::SnapshotManager& snaps, bool timers)
      : world_(world), svc_(svc), snaps_(snaps), counters_(svc.metrics()),
        timers_(timers) {}

  void epoch(int i, bool traced) {
    StepRecord rec;
    rec.index = i;
    rec.traced = traced;
    std::vector<Ipv6> targets;
    if (timers_) {
      auto t0 = Clock::now();
      targets = svc_.eligible_targets();
      rec.eligible_ms = ms(seconds_since(t0));
      add_new_inputs(targets, ScanDate{i});
      t0 = Clock::now();
      rec.candidates = static_cast<double>(
          AliasDetector::candidates(world_.rib(), targets, svc_.config().apd)
              .size());
      rec.candidates_ms = ms(seconds_since(t0));
    }

    const auto before = counters_.read();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    svc_.step(world_, ScanDate{i});
    rec.wall_s = seconds_since(t0);
    rec.cpu_s = process_cpu_s() - cpu0;
    const auto after = counters_.read();
    for (std::size_t k = 0; k < kCounterCount; ++k)
      rec.delta[k] = after[k] - before[k];
    rec.sim_days = svc_.history().at(i).duration_days;

    // The epoch barrier.
    const auto b0 = Clock::now();
    auto snap = serve::freeze_epoch(svc_, world_, i);
    const auto b1 = Clock::now();
    snaps_.publish(snap);
    const auto b2 = Clock::now();
    freeze_s.push_back(seconds_between(b0, b1));
    publish_s.push_back(seconds_between(b1, b2));
    serve::EpochRecord r;
    r.epoch = snap->epoch();
    r.date = snap->info().date;
    r.input_total = snap->info().input_total;
    r.scan_targets = snap->info().scan_targets;
    r.aliased_prefixes = snap->info().aliased_prefixes;
    r.responsive = snap->info().responsive;
    r.excluded_total = snap->info().excluded_total;
    r.digest = snap->digest();
    records.push_back(r);
    if (retain) retained[i] = snap;
    last = std::move(snap);

    if (timers_) {
      auto t1 = Clock::now();
      const PrefixSet& aliased = svc_.aliased();
      sink_ += static_cast<std::size_t>(std::count_if(
          targets.begin(), targets.end(),
          [&](const Ipv6& a) { return aliased.covers(a); }));
      rec.alias_filter_ms = ms(seconds_since(t1));
      probe_sample(targets, ScanDate{i});
    }
    steps.push_back(rec);
  }

  [[nodiscard]] double step_wall_s() const {
    double s = 0;
    for (const auto& r : steps) s += r.wall_s;
    return s;
  }

  std::vector<StepRecord> steps;
  std::vector<double> freeze_s, publish_s;
  std::vector<serve::EpochRecord> records;
  bool retain = false;
  Snapshots retained;
  std::shared_ptr<const EpochSnapshot> last;
  std::array<double, kProtoCount> probe_ns{};
  std::array<double, kProtoCount> probe_calls{};

 private:
  /// Append what step(d) adds to the input before it takes its targets:
  /// the addresses the sources deliver that the input does not hold yet,
  /// minus blocklisted ones, in delivery order (the input keeps insertion
  /// order). New addresses cannot be excluded yet.
  void add_new_inputs(std::vector<Ipv6>& targets, ScanDate d) const {
    const SourceCollector sources(svc_.config().sources);
    std::unordered_set<Ipv6, Ipv6Hasher> seen;
    for (const auto& k : sources.collect(world_, d))
      if (!svc_.input().contains(k.addr) && seen.insert(k.addr).second &&
          !svc_.blocklist().covers(k.addr))
        targets.push_back(k.addr);
  }

  /// Time each public probe call on up to 128 of the step's targets.
  void probe_sample(const std::vector<Ipv6>& targets, ScanDate d) {
    if (targets.empty()) return;
    const std::size_t stride = std::max<std::size_t>(1, targets.size() / 128);
    std::vector<Ipv6> sample;
    for (std::size_t i = 0; i < targets.size(); i += stride)
      sample.push_back(targets[i]);
    const DnsQuestion& q = svc_.config().scanner.dns_question;
    for (Proto p : kAllProtos) {
      const auto t0 = Clock::now();
      for (const Ipv6& a : sample) {
        switch (p) {
          case Proto::Icmp:
            sink_ += world_.icmp_echo(a, IcmpEchoRequest{}, d).has_value();
            break;
          case Proto::Tcp80:
            sink_ += world_.tcp_syn(a, 80, d).has_value();
            break;
          case Proto::Tcp443:
            sink_ += world_.tcp_syn(a, 443, d).has_value();
            break;
          case Proto::Udp53:
            sink_ += world_.dns_query(a, q, d).size();
            break;
          case Proto::Udp443:
            sink_ += world_.quic_probe(a, d).has_value();
            break;
        }
      }
      const auto i = static_cast<std::size_t>(proto_index(p));
      probe_ns[i] += static_cast<double>(ns_since(t0));
      probe_calls[i] += static_cast<double>(sample.size());
    }
  }

  const World& world_;
  HitlistService& svc_;
  serve::SnapshotManager& snaps_;
  StepCounters counters_;
  bool timers_;
  std::size_t sink_ = 0;
};

// --- digests and invariants -------------------------------------------------

std::string history_digest(const History& h) {
  std::string buf;
  auto put = [&](std::uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const auto& e : h.entries()) {
    put(static_cast<std::uint64_t>(e.scan_index));
    put(e.input_total);
    put(e.scan_targets);
    put(e.aliased_prefixes);
    std::uint64_t days = 0;
    std::memcpy(&days, &e.duration_days, sizeof days);
    put(days);
    for (const auto& [a, mask] : e.responsive) {
      put(a.hi());
      put(a.lo());
      put(mask);
    }
  }
  return hex64(fnv1a(buf));
}

Digests digests_of(const HitlistService& svc, const EpochLoop& drv) {
  return {hex64(fnv1a(svc.metrics().snapshot().to_json(false))),
          history_digest(svc.history()),
          hex64(fnv1a(serve::epoch_records_json(drv.records)))};
}

/// Invariants that hold for every seed, plus equality with `reference`
/// (an earlier repetition, or the digests recorded for the default seed).
void check_run(const HitlistService& svc, const Digests& got,
               const Digests* reference, const char* against, Checks& c) {
  const MetricsSnapshot m = svc.metrics().snapshot();
  const auto v = [&](const std::string& n) { return m.counter_value(n); };
  c.expect(v("gfw.records_inspected") ==
               v("gfw.records_kept") + v("gfw.records_dropped"),
           "gfw.records_inspected == kept + dropped");
  for (Proto p : kAllProtos) {
    const std::string t = proto_token(p);
    c.expect(v("scanner.answered{proto=" + t + "}") <=
                 v("scanner.probes_sent{proto=" + t + "}"),
             "scanner answered <= sent for " + t);
  }
  c.expect(svc.input().size() == 0 || v("apd.candidates_tested") > 0,
           "apd.candidates_tested > 0 once inputs exist");
  if (reference == nullptr) return;
  const std::string why = std::string(" equals ") + against;
  c.expect(got.stable_metrics == reference->stable_metrics,
           "stable metrics digest " + got.stable_metrics + why);
  c.expect(got.history == reference->history,
           "history digest " + got.history + why);
  c.expect(got.epochs == reference->epochs,
           "epoch record digest " + got.epochs + why);
}

// --- publishing -------------------------------------------------------------

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return f.good();
}

/// Writes what sixdust-hitlist --outdir --archive writes after the last
/// scan, each time into a fresh directory, and deletes the previous one
/// untimed. Rewriting the same files would time the disk instead of the
/// program: ext4 flushes a file truncated and rewritten in place on close.
class Publisher {
 public:
  explicit Publisher(std::string run_dir) : run_dir_(std::move(run_dir)) {}

  void publish(const HitlistService& svc, const World& world,
               std::uint64_t fp, Checks& c) {
    const std::string dir = run_dir_ + "/publish" + std::to_string(count_++);
    std::filesystem::create_directories(dir);
    write(svc, world, dir, fp, c);
    if (!last_.empty()) std::filesystem::remove_all(last_);
    last_ = dir;
  }
  /// The archive of the latest publish.
  [[nodiscard]] std::string archive() const {
    return last_ + "/hitlist.archive";
  }

  std::vector<double> total_s, report_ms, archive_save_ms;

 private:
  void write(const HitlistService& svc, const World& world,
             const std::string& dir, std::uint64_t fp, Checks& c);

  std::string run_dir_;
  std::string last_;
  int count_ = 0;
};

void Publisher::write(const HitlistService& svc, const World& world,
                      const std::string& dir, std::uint64_t fp, Checks& c) {
  const auto t0 = Clock::now();
  const GfwFilter& gfw = svc.gfw();
  std::vector<Ipv6> responsive;
  for (const auto& [a, mask] : svc.history().entries().back().responsive) {
    if (gfw.tainted(a) && (mask & ~proto_bit(Proto::Udp53)) == 0) continue;
    responsive.push_back(a);
  }
  std::vector<Ipv6> tainted;
  for (const auto& [a, rec] : gfw.taint_records()) tainted.push_back(a);
  std::sort(tainted.begin(), tainted.end());
  bool ok = write_address_file(dir + "/responsive.txt", responsive,
                               "responsive addresses (GFW-cleaned)");
  ok &= write_prefix_file(dir + "/aliased.txt", svc.aliased_list(),
                          "aliased (fully responsive) prefixes");
  ok &= write_address_file(dir + "/unresponsive-pool.txt",
                           svc.unresponsive_pool(),
                           "30-day-filter exclusion pool");
  ok &= write_address_file(dir + "/gfw-tainted.txt", tainted,
                           "addresses with >=1 injected DNS response");
  const auto r0 = Clock::now();
  const ServiceReport report(&svc, &world.rib(), &world.registry());
  const std::string md = report.markdown();
  const std::string timeline = report.timeline_csv();
  const std::string as_dist = report.as_distribution_csv();
  report_ms.push_back(ms(seconds_since(r0)));
  ok &= write_text(dir + "/REPORT.md", md);
  ok &= write_text(dir + "/timeline.csv", timeline);
  ok &= write_text(dir + "/as-distribution.csv", as_dist);
  const auto a0 = Clock::now();
  ok &= ServiceArchive::save(svc, fp, dir + "/hitlist.archive");
  archive_save_ms.push_back(ms(seconds_since(a0)));
  total_s.push_back(seconds_since(t0));
  c.expect(ok, "published files written to " + dir);
}

// --- per-layer attribution from spans ---------------------------------------

struct Interval {
  std::uint64_t begin = 0, end = 0;
};

std::uint64_t union_length(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::uint64_t total = 0, reached = 0;
  for (const auto& i : v) {
    const std::uint64_t from = std::max(i.begin, reached);
    if (i.end > from) total += i.end - from;
    reached = std::max(reached, i.end);
  }
  return total;
}

/// Wall time of traced steps split by what covers it, in ms. A span with
/// child spans (the step, the APD phase, the scan phase) leaves unattributed
/// whatever part of it no child span and no benchmark timer covers; a
/// phase without children (inputs, traceroute) is a leaf.
struct Attribution {
  int steps = 0;
  double step = 0, inputs = 0, apd = 0, scan = 0, traceroute = 0;
  double apd_round = 0, candidates = 0, eligible = 0, alias_filter = 0;
  double shard_busy = 0, scan_covered = 0, gfw = 0;
  double un_step = 0, un_apd = 0, un_scan = 0;

  [[nodiscard]] double unattributed() const {
    return un_step + un_apd + un_scan;
  }
};

Attribution attribute(const std::vector<SpanRecord>& spans,
                      const std::vector<const StepRecord*>& traced,
                      Checks& c) {
  auto end_of = [](const SpanRecord& s) {
    return s.mono_start_ns + s.mono_dur_ns;
  };
  auto within = [&](const SpanRecord& s, const SpanRecord& w) {
    return s.mono_start_ns >= w.mono_start_ns && end_of(s) <= end_of(w);
  };
  std::vector<const SpanRecord*> step_spans;
  for (const auto& s : spans)
    if (s.name == "service.phase.step") step_spans.push_back(&s);
  std::sort(step_spans.begin(), step_spans.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->mono_start_ns < b->mono_start_ns;
            });
  Attribution at;
  c.expect(step_spans.size() == traced.size(),
           "one service.phase.step span per traced step");
  const std::size_t n = std::min(step_spans.size(), traced.size());
  for (std::size_t k = 0; k < n; ++k) {
    const SpanRecord& w = *step_spans[k];
    const StepRecord& rec = *traced[k];
    double phase[4] = {0, 0, 0, 0};  // inputs, apd, scan, traceroute (ns)
    const SpanRecord* apd = nullptr;
    const SpanRecord* scan = nullptr;
    static constexpr const char* kPhases[4] = {
        "service.phase.inputs", "service.phase.apd", "service.phase.scan",
        "service.phase.traceroute"};
    for (const auto& s : spans) {
      if (s.buffer != w.buffer || !within(s, w)) continue;
      for (int p = 0; p < 4; ++p) {
        if (s.name != kPhases[p]) continue;
        phase[p] += static_cast<double>(s.mono_dur_ns);
        if (p == 1) apd = &s;
        if (p == 2) scan = &s;
      }
    }
    double apd_round = 0, shard = 0, gfw = 0, scan_covered = 0;
    std::vector<Interval> cover;
    for (const auto& s : spans) {
      if (apd != nullptr && s.name == "alias.apd_round" && within(s, *apd))
        apd_round += static_cast<double>(s.mono_dur_ns);
      if (scan == nullptr) continue;
      const bool is_shard = s.name == "scanner.shard";
      const bool is_gfw = s.name == "gfw.filter" || s.name == "gfw.observe";
      if (!is_shard && !is_gfw) continue;
      const std::uint64_t b = std::max(s.mono_start_ns, scan->mono_start_ns);
      const std::uint64_t e = std::min(end_of(s), end_of(*scan));
      if (e <= b) continue;
      (is_shard ? shard : gfw) += static_cast<double>(s.mono_dur_ns);
      cover.push_back({b, e});
    }
    scan_covered = static_cast<double>(union_length(cover));

    const double step_ns = static_cast<double>(w.mono_dur_ns);
    const double timers_ns = (rec.eligible_ms + rec.alias_filter_ms) * 1e6;
    at.steps += 1;
    at.step += step_ns / 1e6;
    at.inputs += phase[0] / 1e6;
    at.apd += phase[1] / 1e6;
    at.scan += phase[2] / 1e6;
    at.traceroute += phase[3] / 1e6;
    at.apd_round += apd_round / 1e6;
    at.candidates += rec.candidates_ms;
    at.eligible += rec.eligible_ms;
    at.alias_filter += rec.alias_filter_ms;
    at.shard_busy += shard / 1e6;
    at.gfw += gfw / 1e6;
    at.scan_covered += scan_covered / 1e6;
    const double phases = phase[0] + phase[1] + phase[2] + phase[3];
    at.un_step += std::max(0.0, step_ns - phases - timers_ns) / 1e6;
    at.un_apd +=
        std::max(0.0, phase[1] - apd_round - rec.candidates_ms * 1e6) / 1e6;
    at.un_scan += std::max(0.0, phase[2] - scan_covered) / 1e6;
  }
  return at;
}

std::vector<std::string> attribution_lines(const std::string& workload,
                                           const Attribution& a) {
  auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  char buf[256];
  std::vector<std::string> out;
  std::snprintf(buf, sizeof buf,
                "attribution %s: %d traced steps, %.1f ms step time",
                workload.c_str(), a.steps, a.step);
  out.emplace_back(buf);
  struct Row {
    const char* phase;
    double wall, covered, uncovered;
    const char* by;
  };
  const Row rows[] = {
      {"step", a.step, a.step - a.un_step, a.un_step,
       "phase spans + eligible_targets/alias-filter timers"},
      {"inputs", a.inputs, a.inputs, 0, "leaf span (no children)"},
      {"apd", a.apd, a.apd - a.un_apd, a.un_apd,
       "alias.apd_round span + candidates timer"},
      {"scan", a.scan, a.scan_covered, a.un_scan,
       "scanner.shard + gfw.* spans"},
      {"traceroute", a.traceroute, a.traceroute, 0, "leaf span (no children)"},
  };
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof buf,
                  "  %-10s wall %10.1f ms  unattributed %10.1f ms (%5.1f%%)  "
                  "covered by %s",
                  r.phase, r.wall, r.uncovered, pct(r.uncovered, r.wall), r.by);
    out.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf,
                "  total unattributed %.1f ms of %.1f ms (%.1f%%)",
                a.unattributed(), a.step, pct(a.unattributed(), a.step));
  out.emplace_back(buf);
  return out;
}

/// Trace cost: wall time per simulated probing day of traced steps over
/// that of untraced steps, minus one.
double trace_overhead(const std::vector<StepRecord>& steps) {
  double tw = 0, ts = 0, uw = 0, us = 0;
  for (const auto& r : steps) {
    (r.traced ? tw : uw) += r.wall_s;
    (r.traced ? ts : us) += r.sim_days;
  }
  if (ts <= 0 || us <= 0 || uw <= 0) return 0;
  return (tw / ts) / (uw / us) - 1;
}

/// Per-layer metrics of the traced steps (see perfbench/README.md for
/// which end-to-end metric each should move, on which workload).
void add_step_layers(const std::vector<const StepRecord*>& traced,
                     const Attribution& a, const EpochLoop& drv,
                     Report& L) {
  StepCounters::Values d{};
  for (const StepRecord* r : traced)
    for (std::size_t k = 0; k < kCounterCount; ++k) d[k] += r->delta[k];
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double scan_sent = 0, scan_answered = 0;
  for (std::size_t i = 0; i < kProtoCount; ++i) {
    scan_sent += d[kScanSent0 + i];
    scan_answered += d[kScanAnswered0 + i];
  }

  L.add("alias.candidates_ms", a.candidates, "ms");
  L.add("alias.probe_round_ms", a.un_apd, "ms");
  L.add("alias.merge_finalize_ms", a.apd_round, "ms");
  L.add("alias.candidates_tested", d[kApdTested], "count");
  L.add("alias.probes_sent", d[kApdProbes], "count");
  L.add("alias.aliased_per_candidate", frac(d[kApdAliased], d[kApdTested]),
        "ratio");
  for (Proto p : kAllProtos) {
    const auto i = static_cast<std::size_t>(proto_index(p));
    L.add("world.probe_ns." + proto_token(p),
          frac(drv.probe_ns[i], drv.probe_calls[i]), "ns");
  }
  L.add("scanner.phase_ms", d[kScanNs] / 1e6, "ms");
  L.add("scanner.shard_busy_ms", a.shard_busy, "ms");
  L.add("scanner.probes_sent", scan_sent, "count");
  L.add("scanner.ns_per_probe", frac(d[kScanNs], scan_sent), "ns");
  L.add("scanner.answered_frac", frac(scan_answered, scan_sent), "ratio");
  L.add("gfw.ms", a.gfw, "ms");
  L.add("gfw.records_inspected", d[kGfwInspected], "count");
  L.add("gfw.kept_frac", frac(d[kGfwKept], d[kGfwInspected]), "ratio");
  L.add("traceroute.ms", d[kTraceNs] / 1e6, "ms");
  L.add("traceroute.probes_sent", d[kTrProbes], "count");
  L.add("traceroute.hops_per_probe", frac(d[kTrHops], d[kTrProbes]), "ratio");
  L.add("hitlist.inputs_ms", d[kInputsNs] / 1e6, "ms");
  L.add("hitlist.eligible_targets_ms", a.eligible, "ms");
  L.add("hitlist.bookkeeping_ms",
        (d[kStepNs] - d[kInputsNs] - d[kApdNs] - d[kScanNs] - d[kTraceNs]) /
            1e6,
        "ms");
  L.add("netbase.alias_filter_ms", a.alias_filter, "ms");
  L.add("core.pool_tasks", d[kPoolTasks], "count");
  L.add("core.pool_spins", d[kPoolSpins], "count");
  L.add("core.pool_parks", d[kPoolParks], "count");
  L.add("obs.unattributed_frac", frac(a.unattributed(), a.step), "ratio");
}

std::vector<const StepRecord*> traced_steps(const std::vector<StepRecord>& v) {
  std::vector<const StepRecord*> out;
  for (const auto& r : v)
    if (r.traced) out.push_back(&r);
  return out;
}

/// The attribution report and the step layers of a run's traced steps.
void add_trace_layers(const std::string& workload, const TraceRecorder& tracer,
                      const EpochLoop& drv, Outcome& out) {
  const auto steps = traced_steps(drv.steps);
  for (const StepRecord* r : steps)
    out.checks.expect(r->candidates == r->delta[kApdTested],
                      "candidates() on the rebuilt targets of scan " +
                          std::to_string(r->index) +
                          " equals the step's apd.candidates_tested");
  const Attribution a = attribute(tracer.collect(), steps, out.checks);
  out.checks.expect(tracer.dropped() == 0, "no spans dropped");
  for (auto& line : attribution_lines(workload, a))
    out.notes.push_back(std::move(line));
  add_step_layers(steps, a, drv, out.layers);
}

/// Publish timings of a trace run, and the archive of the last publish
/// loaded back, which must hold the run's history.
void add_publish_layers(const Publisher& publisher,
                        const HitlistService::Config& sc, std::uint64_t seed,
                        const std::string& history, Outcome& out) {
  const auto t0 = Clock::now();
  const auto loaded = ServiceArchive::load(sc, seed, publisher.archive());
  out.layers.add("hitlist.archive_load_ms", ms(seconds_since(t0)), "ms");
  out.checks.expect(
      loaded != nullptr && history_digest(loaded->history()) == history,
      "archive loads back to the same history");
  out.layers.add("hitlist.publish_ms", ms(median(publisher.total_s)), "ms");
  out.layers.add("hitlist.archive_save_ms", median(publisher.archive_save_ms),
                 "ms");
  out.layers.add("analysis.report_ms", median(publisher.report_ms), "ms");
}

// --- serving ----------------------------------------------------------------

serve::Server::Config server_config(const RunOptions& o,
                                    const std::string& sock,
                                    MetricsRegistry* reg,
                                    std::shared_ptr<ThreadPool> pool) {
  serve::Server::Config cfg;
  cfg.listen = *serve::parse_listen_spec("unix:" + o.run_dir + "/" + sock);
  cfg.readers = o.readers;
  cfg.metrics = reg;
  cfg.pool = std::move(pool);
  return cfg;
}

/// Poll-loop passes of every reader lane so far.
double lane_ticks(const serve::Server& server) {
  std::uint64_t n = 0;
  for (const auto& l : server.lane_stats()) n += l.ticks;
  return static_cast<double>(n);
}

std::size_t key_count(const RunOptions& o) { return o.tiny ? 4096 : 65536; }

/// Fold a scored query phase into the report; `ticks` are the lane
/// poll-loop passes while the client ran.
void add_queries(const QueryResult& q, double ticks, Outcome& out) {
  out.checks.add_ops(q.sent, q.failed);
  out.checks.expect(q.open_samples > 0 && q.qps > 0,
                    "both query phases completed requests");
  out.e2e.add("query_p50_us", q.p50_us, "us");
  out.e2e.add("query_qps", q.qps, "1/s");
  out.layers.add("serve.query_p99_us", q.p99_us, "us");
  out.layers.add("serve.lane_ticks_per_request",
                 q.sent == 0 ? 0.0 : ticks / static_cast<double>(q.sent),
                 "ratio");
  out.layers.add("serve.found_frac", q.found_frac, "ratio");
  out.layers.add("loadgen.late_p99_us", q.late_p99_us, "us");
}

/// Epoch barrier timings (seconds) per epoch index, one entry per
/// repetition of the timeline.
struct SwapTimes {
  std::vector<std::vector<double>> freeze_s, publish_s;

  void add(const EpochLoop& drv) {
    freeze_s.resize(drv.freeze_s.size());
    publish_s.resize(drv.publish_s.size());
    for (std::size_t i = 0; i < drv.freeze_s.size(); ++i) {
      freeze_s[i].push_back(drv.freeze_s[i]);
      publish_s[i].push_back(drv.publish_s[i]);
    }
  }
  /// Per epoch index the fastest repetition, then the median over epochs.
  void report(Outcome& out) const {
    std::vector<double> swap, freeze, publish;
    for (std::size_t i = 0; i < freeze_s.size(); ++i) {
      std::vector<double> both;
      for (std::size_t r = 0; r < freeze_s[i].size(); ++r)
        both.push_back(freeze_s[i][r] + publish_s[i][r]);
      swap.push_back(ms(fastest(both)));
      freeze.push_back(ms(fastest(freeze_s[i])));
      publish.push_back(fastest(publish_s[i]) * 1e6);
    }
    out.e2e.add("epoch_swap_ms", median(swap), "ms");
    out.layers.add("serve.freeze_ms", median(freeze), "ms");
    out.layers.add("serve.publish_us", median(publish), "us");
  }
};

// --- batch workloads --------------------------------------------------------

/// Repeat the whole timeline (fresh world and service each time) until the
/// run's budget is spent, then serve queries on the final epoch. In a trace
/// run, the second repetition is traced and the others are not.
Outcome run_batch(const RunOptions& o, const Shape& shape) {
  Outcome out;
  const WorldConfig wc = world_config(o, shape);
  HitlistService::Config sc = service_config(o);

  std::vector<double> setup;
  const auto setup_start = Clock::now();
  while (setup.size() < kSetupRepeats ||
         seconds_since(setup_start) < kSetupMinS) {
    const auto t0 = Clock::now();
    const auto w = build_world(wc);
    const HitlistService probe(sc);
    setup.push_back(seconds_since(t0));
  }

  const auto start = Clock::now();
  const int min_reps = o.tiny ? 2 : 3;
  const double budget_s = 0.75 * o.seconds;
  // Wall and CPU time of each scan's step, one entry per untraced
  // repetition: a slow spell of the host (seconds long on a shared VM)
  // lands in some repetitions of a scan, and the fastest one drops it.
  std::vector<std::vector<double>> wall(shape.scans), cpu(shape.scans);
  Publisher publisher(o.run_dir);
  std::vector<StepRecord> all_steps;
  SwapTimes swaps;
  std::optional<Digests> first;
  std::unique_ptr<World> world;
  std::shared_ptr<const EpochSnapshot> final_snap;  // points into *world
  for (int rep = 0; rep < min_reps || seconds_since(start) < budget_s; ++rep) {
    const bool traced = o.trace && rep == 1;
    // A fresh world per repetition: a World keeps probe-side state across
    // timelines (APD probe counts differ on a reused world), so only a
    // fresh one reproduces the recorded digests.
    final_snap.reset();
    world = build_world(wc);
    TraceRecorder tracer;
    HitlistService::Config rc = sc;
    if (traced) rc.tracer = &tracer;
    HitlistService svc(rc);
    serve::SnapshotManager snaps(&svc.metrics());
    EpochLoop drv(*world, svc, snaps, traced);
    for (int i = 0; i < shape.scans; ++i) drv.epoch(i, traced);

    double rep_cpu = 0;
    for (const auto& r : drv.steps) {
      rep_cpu += r.cpu_s;
      if (traced) continue;
      wall[static_cast<std::size_t>(r.index)].push_back(r.wall_s);
      cpu[static_cast<std::size_t>(r.index)].push_back(r.cpu_s);
    }
    char line[128];
    std::snprintf(line, sizeof line,
                  "repetition %d%s: steps %.3f s, cpu %.3f s", rep,
                  traced ? " (traced)" : "", drv.step_wall_s(), rep_cpu);
    out.notes.emplace_back(line);
    for (int k = 0; k < (o.trace ? kPublishRepeats : 1); ++k)
      publisher.publish(svc, *world, wc.seed, out.checks);

    const Digests got = digests_of(svc, drv);
    if (!first) {
      first = got;
      out.digests = got;
      check_run(svc, got, o.expected ? &*o.expected : nullptr,
                "the recorded digest", out.checks);
    } else {
      check_run(svc, got, &*first, "repetition 0", out.checks);
    }

    if (traced) add_trace_layers(o.workload, tracer, drv, out);
    all_steps.insert(all_steps.end(), drv.steps.begin(), drv.steps.end());
    swaps.add(drv);
    final_snap = drv.last;
  }
  swaps.report(out);
  if (o.trace) {
    out.layers.add("obs.trace_overhead_frac", trace_overhead(all_steps),
                   "ratio");
    add_publish_layers(publisher, sc, wc.seed, first->history, out);
  }

  // Serve the final epoch: open and closed loop alternate, so that both
  // are spread over the whole query phase.
  auto pool = ThreadPool::create(o.threads);
  MetricsRegistry reg;
  serve::SnapshotManager snaps(&reg);
  snaps.publish(final_snap);
  serve::Server server(server_config(o, "q.sock", &reg, pool), &snaps);
  std::string err;
  out.checks.expect(server.start(&err), "server starts: " + err);
  const KeySet keys =
      make_keys(*final_snap, world->rib(), o.seed, key_count(o));
  LoadPlan plan;
  plan.segments = 10;
  plan.open_s = 0.15 * o.seconds / plan.segments;
  plan.closed_s = 0.1 * o.seconds / plan.segments;
  plan.rate_qps = kQueryRate;
  plan.conns = o.conns;
  ClientProcess client;
  const double ticks0 = lane_ticks(server);
  out.checks.expect(
      client.start(o.self_exe, server.endpoint(), keys, plan),
      "load generator starts");
  out.checks.expect(client.wait(120), "load generator exits cleanly");
  const double ticks = lane_ticks(server) - ticks0;
  server.stop();
  // Per segment, three open slices of 0.15 s and six closed windows of
  // 0.05 s at --seconds 30.
  const QueryResult q =
      score_replies(client.log_path(), keys,
                    {{final_snap->epoch(), final_snap}}, plan, 3, 6);
  add_queries(q, ticks, out);
  if (o.trace) engine_layer_metrics(keys, final_snap, q.p50_us, out.layers);

  // One timeline's step time: per scan, the fastest repetition.
  double run_wall = 0, run_cpu = 0;
  for (int i = 0; i < shape.scans; ++i) {
    run_wall += fastest(wall[static_cast<std::size_t>(i)]);
    run_cpu += fastest(cpu[static_cast<std::size_t>(i)]);
  }
  out.e2e.add("setup_s", median(setup), "s");
  out.e2e.add("run_wall_s", run_wall, "s");
  out.e2e.add("cpu_s", run_cpu, "s");
  out.e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

// --- serve-epochs -----------------------------------------------------------

/// The in-process daemon: service, snapshot manager, query server and the
/// epoch loop. Members are destroyed in reverse order, so the server stops
/// before the snapshots and the service it reads from go away.
struct Daemon {
  std::unique_ptr<World> world;
  std::unique_ptr<TraceRecorder> tracer;
  std::unique_ptr<HitlistService> svc;
  std::unique_ptr<serve::SnapshotManager> snaps;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<EpochLoop> loop;
};

/// World build, service, server start and the first published epoch.
std::unique_ptr<Daemon> start_daemon(const RunOptions& o, const Shape& shape,
                                     int n, Checks& c) {
  auto d = std::make_unique<Daemon>();
  d->world = build_world(world_config(o, shape));
  HitlistService::Config sc = service_config(o);
  if (o.trace) {
    d->tracer = std::make_unique<TraceRecorder>();
    sc.tracer = d->tracer.get();
  }
  d->svc = std::make_unique<HitlistService>(sc);
  // Epochs opt in one at a time (see run_serve_epochs).
  if (o.trace) d->svc->metrics().set_tracer(nullptr);
  d->snaps = std::make_unique<serve::SnapshotManager>(&d->svc->metrics());
  d->server = std::make_unique<serve::Server>(
      server_config(o, "q" + std::to_string(n) + ".sock", &d->svc->metrics(),
                    d->svc->pool()),
      d->snaps.get());
  std::string err;
  c.expect(d->server->start(&err), "server starts: " + err);
  d->loop =
      std::make_unique<EpochLoop>(*d->world, *d->svc, *d->snaps, o.trace);
  d->loop->retain = true;
  d->loop->epoch(0, false);
  return d;
}

/// Epochs published at a fixed interval while one client process sends an
/// open-loop then a closed-loop query stream. In a trace run, odd epochs
/// are traced and even ones are not.
Outcome run_serve_epochs(const RunOptions& o, const Shape& shape) {
  Outcome out;
  std::vector<double> setup;
  std::unique_ptr<Daemon> d;
  const auto setup_start = Clock::now();
  for (int i = 0; setup.size() < kSetupRepeats ||
                  seconds_since(setup_start) < kSetupMinS;
       ++i) {
    d.reset();
    const auto t0 = Clock::now();
    d = start_daemon(o, shape, i, out.checks);
    setup.push_back(seconds_since(t0));
  }
  EpochLoop& drv = *d->loop;

  const KeySet keys =
      make_keys(*drv.last, d->world->rib(), o.seed, key_count(o));
  // Epochs are paced over 85% of the run. The open loop spans a whole
  // number of epoch intervals and is sliced per interval, so every slice
  // holds one epoch's worth of step contention.
  const double interval = 0.85 * o.seconds / std::max(1, shape.scans - 1);
  const int open_intervals = std::max(1, (shape.scans - 1) * 4 / 7);
  LoadPlan plan;
  plan.open_s = interval * open_intervals;
  plan.closed_s = 0.85 * o.seconds - plan.open_s;
  plan.rate_qps = kQueryRate;
  plan.conns = o.conns;
  ClientProcess client;
  const double ticks0 = lane_ticks(*d->server);
  out.checks.expect(
      client.start(o.self_exe, d->server->endpoint(), keys, plan),
      "load generator starts");

  const auto start = Clock::now();
  const double cpu0 = process_cpu_s();
  for (int i = 1; i < shape.scans; ++i) {
    const std::chrono::duration<double> due(interval * (i - 1));
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(due));
    const bool traced = o.trace && i % 2 == 1;
    if (o.trace)
      d->svc->metrics().set_tracer(traced ? d->tracer.get() : nullptr);
    drv.epoch(i, traced);
  }
  out.checks.expect(client.wait(150), "load generator exits cleanly");
  const double cpu = process_cpu_s() - cpu0;
  const double ticks = lane_ticks(*d->server) - ticks0;
  d->server->stop();

  double run_wall = 0;
  for (std::size_t i = 1; i < drv.steps.size(); ++i)
    run_wall += drv.steps[i].wall_s + drv.freeze_s[i] + drv.publish_s[i];

  Publisher publisher(o.run_dir);
  for (int k = 0; k < (o.trace ? kPublishRepeats : 1); ++k)
    publisher.publish(*d->svc, *d->world, o.seed, out.checks);

  out.digests = digests_of(*d->svc, drv);
  check_run(*d->svc, out.digests, o.expected ? &*o.expected : nullptr,
            "the recorded digest", out.checks);
  SwapTimes swaps;
  swaps.add(drv);
  swaps.report(out);

  // One slice or window per epoch interval: each holds one step.
  const QueryResult q =
      score_replies(client.log_path(), keys, drv.retained, plan,
                    open_intervals,
                    std::max(1, shape.scans - 1 - open_intervals));
  add_queries(q, ticks, out);
  out.checks.expect(q.sent > 0, "queries were answered during the epochs");

  if (o.trace) {
    add_trace_layers(o.workload, *d->tracer, drv, out);
    // Epoch 0 ran during set-up, before any load.
    out.layers.add("obs.trace_overhead_frac",
                   trace_overhead({drv.steps.begin() + 1, drv.steps.end()}),
                   "ratio");
    add_publish_layers(publisher, service_config(o), o.seed,
                       out.digests.history, out);
    engine_layer_metrics(keys, drv.last, q.p50_us, out.layers);
  }

  out.e2e.add("setup_s", median(setup), "s");
  out.e2e.add("run_wall_s", run_wall, "s");
  out.e2e.add("cpu_s", cpu, "s");
  out.e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "timeline-dense" || name == "wide-early" ||
         name == "serve-epochs";
}

Outcome run_workload(const RunOptions& o) {
  const Shape shape = shape_of(o);
  return shape.daemon ? run_serve_epochs(o, shape) : run_batch(o, shape);
}

}  // namespace perfbench
