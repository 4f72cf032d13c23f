#include "serve/telemetry.hpp"

// sixdust-lint: allow-file(det-wallclock) — the telemetry plane exists to
// watch the daemon in real time: slow-query stamps, epoch age, stall
// detection, and the sampler cadence are all honest wall-clock. Nothing
// here registers or writes a stable metric (see DESIGN.md §15).

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <chrono>

#include "obs/json_mini.hpp"

namespace sixdust::serve {

namespace {

/// Milliseconds since the Unix epoch — the timestamp base of the
/// slow-query log and the time series.
std::uint64_t wall_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void append_u64_field(std::string& out, const char* key, std::uint64_t v,
                      bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu%s", key,
                static_cast<unsigned long long>(v), comma ? "," : "");
  out += buf;
}

}  // namespace

OpLane op_lane(Op op) noexcept {
  switch (op) {
    case Op::kLookup: return OpLane::kLookup;
    case Op::kOrigin: return OpLane::kOrigin;
    case Op::kAlias: return OpLane::kAlias;
    case Op::kEpochInfo: return OpLane::kEpochInfo;
    case Op::kMetrics: return OpLane::kMetrics;
    case Op::kError: return OpLane::kError;
  }
  return OpLane::kError;
}

const char* op_lane_name(OpLane lane) noexcept {
  switch (lane) {
    case OpLane::kLookup: return "lookup";
    case OpLane::kOrigin: return "origin";
    case OpLane::kAlias: return "alias";
    case OpLane::kEpochInfo: return "epoch_info";
    case OpLane::kMetrics: return "metrics";
    case OpLane::kError: return "error";
    case OpLane::kCount: break;
  }
  return "error";
}

std::string WatchdogVerdict::json() const {
  std::string out = "{\"healthy\":";
  out += healthy ? "true" : "false";
  out += ",\"reasons\":[";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    append_json_escaped(out, reasons[i]);
    out += '"';
  }
  out += "]}";
  return out;
}

LiveTelemetry::LiveTelemetry(Config cfg)
    : cfg_(std::move(cfg)),
      timeseries_(TimeSeriesRecorder::Config{cfg_.timeseries_capacity}) {
  created_ms_ = wall_now_ms();
  if (cfg_.metrics != nullptr) {
    samples_ = &cfg_.metrics->counter("serve.telemetry.samples",
                                      Stability::kVolatile);
    metrics_writes_ = &cfg_.metrics->counter("serve.telemetry.metrics_writes",
                                             Stability::kVolatile);
    write_errors_ = &cfg_.metrics->counter("serve.telemetry.write_errors",
                                           Stability::kVolatile);
    slow_queries_ =
        &cfg_.metrics->counter("serve.slow_queries", Stability::kVolatile);
    overruns_ctr_ = &cfg_.metrics->counter("serve.watchdog.epoch_overruns",
                                           Stability::kVolatile);
    lane_stalls_ctr_ = &cfg_.metrics->counter("serve.watchdog.lane_stalls",
                                              Stability::kVolatile);
  }
}

LiveTelemetry::~LiveTelemetry() {
  stop();
  if (slow_file_ != nullptr) {
    std::fclose(slow_file_);
    slow_file_ = nullptr;
  }
}

void LiveTelemetry::record_query(Op op, std::uint64_t ns) {
  const OpLane lane = op_lane(op);
  op_lat_[static_cast<unsigned>(lane)].record(ns);
  if (cfg_.slow_query_us > 0 && ns / 1000 >= cfg_.slow_query_us)
    note_slow(lane, ns);
}

void LiveTelemetry::note_slow(OpLane lane, std::uint64_t ns) {
  slow_count_.fetch_add(1, std::memory_order_relaxed);
  if (slow_queries_ != nullptr) slow_queries_->inc();
  SlowQuery q;
  q.t_ms = wall_now_ms();
  q.lane = lane;
  q.us = ns / 1000;
  std::lock_guard lk(slow_m_);
  slow_ring_.push_back(q);
  while (slow_ring_.size() > 64) slow_ring_.pop_front();
  if (slow_file_ != nullptr) {
    std::fprintf(slow_file_,
                 "{\"t_ms\":%llu,\"op\":\"%s\",\"us\":%llu,"
                 "\"threshold_us\":%llu}\n",
                 static_cast<unsigned long long>(q.t_ms),
                 op_lane_name(q.lane), static_cast<unsigned long long>(q.us),
                 static_cast<unsigned long long>(cfg_.slow_query_us));
    std::fflush(slow_file_);
  }
}

void LiveTelemetry::record_freeze(std::uint64_t ns) {
  freeze_lat_.record(ns);
  last_freeze_ns_.store(ns, std::memory_order_relaxed);
}

void LiveTelemetry::record_publish(
    int epoch, std::uint64_t ns,
    std::shared_ptr<const EpochSnapshot> superseded) {
  publish_lat_.record(ns);
  last_publish_ns_.store(ns, std::memory_order_relaxed);
  last_epoch_.store(epoch, std::memory_order_relaxed);
  const std::uint64_t now = wall_now_ms();
  last_publish_ms_.store(now, std::memory_order_relaxed);

  const std::uint64_t swap_ns =
      last_freeze_ns_.load(std::memory_order_relaxed) + ns;
  const bool overrun = swap_ns > cfg_.epoch_swap_budget_ms * 1'000'000ULL;
  last_swap_overrun_.store(overrun, std::memory_order_relaxed);
  if (overrun) {
    overruns_.fetch_add(1, std::memory_order_relaxed);
    if (overruns_ctr_ != nullptr) overruns_ctr_->inc();
  }

  if (superseded != nullptr) {
    PendingDrain d;
    d.snap = superseded;
    d.epoch = superseded->epoch();
    d.superseded_at_ms = now;
    superseded.reset();  // the weak_ptr alone must not keep the epoch alive
    std::lock_guard lk(wd_m_);
    drains_.push_back(std::move(d));
    if (drains_.size() > 64) drains_.erase(drains_.begin());
  }
}

bool LiveTelemetry::start(std::string* error) {
  if (!cfg_.slow_query_log.empty() && slow_file_ == nullptr) {
    slow_file_ = std::fopen(cfg_.slow_query_log.c_str(), "a");
    if (slow_file_ == nullptr) {
      if (error != nullptr)
        *error = "cannot open slow-query log '" + cfg_.slow_query_log +
                 "': " + std::strerror(errno);
      return false;
    }
  }
  std::uint64_t wake = 0;
  if (cfg_.sample_interval_ms > 0) wake = cfg_.sample_interval_ms;
  if (cfg_.metrics_interval_ms > 0 &&
      (wake == 0 || cfg_.metrics_interval_ms < wake))
    wake = cfg_.metrics_interval_ms;
  if (wake == 0) return true;  // nothing periodic to do

  {
    std::lock_guard lk(run_m_);
    if (running_) return true;
    run_stop_ = false;
    running_ = true;
  }
  // sixdust-lint: allow(conc-raw-thread) — the sampler is daemon plumbing
  // like the serve lanes: it must outlive any pool batch and wake on its
  // own clock, so it cannot ride the cooperative ThreadPool.
  sampler_ = std::thread([this, wake] {
    while (true) {
      {
        std::unique_lock lk(run_m_);
        run_cv_.wait_for(lk, std::chrono::milliseconds(wake));
        if (run_stop_) return;
      }
      tick(wall_now_ms());
    }
  });
  return true;
}

void LiveTelemetry::stop() {
  {
    std::lock_guard lk(run_m_);
    if (!running_) return;
    run_stop_ = true;
  }
  run_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  std::lock_guard lk(run_m_);
  running_ = false;
}

void LiveTelemetry::tick(std::uint64_t now_ms) {
  bool sample_due = false;
  bool rewrite_due = false;
  {
    std::lock_guard lk(wd_m_);
    if (cfg_.sample_interval_ms > 0 &&
        (last_sample_ms_ == 0 ||
         now_ms - last_sample_ms_ >= cfg_.sample_interval_ms)) {
      last_sample_ms_ = now_ms;
      sample_due = true;
    }
    if (cfg_.metrics_interval_ms > 0 && !cfg_.metrics_out.empty() &&
        (last_rewrite_ms_ == 0 ||
         now_ms - last_rewrite_ms_ >= cfg_.metrics_interval_ms)) {
      last_rewrite_ms_ = now_ms;
      rewrite_due = true;
    }
  }
  if (sample_due && cfg_.metrics != nullptr) {
    timeseries_.sample(now_ms, cfg_.metrics->snapshot());
    if (samples_ != nullptr) samples_->inc();
  }
  check_lanes(now_ms);
  check_drains(now_ms);
  if (rewrite_due) rewrite_metrics();
}

void LiveTelemetry::check_lanes(std::uint64_t now_ms) {
  if (server_ == nullptr) return;
  const std::vector<Server::LaneStats> lanes = server_->lane_stats();
  std::lock_guard lk(wd_m_);
  lane_last_ticks_.resize(lanes.size(), 0);
  lane_last_change_ms_.resize(lanes.size(), 0);
  lane_stalled_.resize(lanes.size(), false);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i].ticks != lane_last_ticks_[i] ||
        lane_last_change_ms_[i] == 0) {
      lane_last_ticks_[i] = lanes[i].ticks;
      lane_last_change_ms_[i] = now_ms;
      lane_stalled_[i] = false;
      continue;
    }
    // Never flag a lane that has not run at all yet (ticks still 0): the
    // server may simply not be started.
    const bool stalled =
        lanes[i].ticks > 0 &&
        now_ms - lane_last_change_ms_[i] >= cfg_.lane_stall_ms;
    if (stalled && !lane_stalled_[i]) {
      lane_stalled_[i] = true;
      if (lane_stalls_ctr_ != nullptr) lane_stalls_ctr_->inc();
    }
  }
}

void LiveTelemetry::check_drains(std::uint64_t now_ms) {
  std::lock_guard lk(wd_m_);
  std::erase_if(drains_, [&](const PendingDrain& d) {
    if (!d.snap.expired()) return false;
    const std::uint64_t held_ms = now_ms > d.superseded_at_ms
                                      ? now_ms - d.superseded_at_ms
                                      : 0;
    drain_lat_.record(held_ms * 1'000'000ULL);
    return true;
  });
}

void LiveTelemetry::rewrite_metrics() {
  if (cfg_.metrics == nullptr || cfg_.metrics_out.empty()) return;
  const std::string tmp = cfg_.metrics_out + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    const std::string json = cfg_.metrics->snapshot().to_json();
    ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = (std::fclose(f) == 0) && ok;
  }
  // The rename is what makes the rewrite atomic: a reader always sees
  // either the previous complete export or the new complete export.
  if (ok) ok = std::rename(tmp.c_str(), cfg_.metrics_out.c_str()) == 0;
  if (ok) {
    if (metrics_writes_ != nullptr) metrics_writes_->inc();
  } else {
    std::remove(tmp.c_str());
    if (write_errors_ != nullptr) write_errors_->inc();
  }
}

WatchdogVerdict LiveTelemetry::verdict() const {
  WatchdogVerdict v;
  {
    std::lock_guard lk(wd_m_);
    for (std::size_t i = 0; i < lane_stalled_.size(); ++i)
      if (lane_stalled_[i])
        v.reasons.push_back("reader lane " + std::to_string(i) +
                            " stopped draining (no poll tick for >= " +
                            std::to_string(cfg_.lane_stall_ms) + " ms)");
  }
  if (last_swap_overrun_.load(std::memory_order_relaxed)) {
    const std::uint64_t swap_ns =
        last_freeze_ns_.load(std::memory_order_relaxed) +
        last_publish_ns_.load(std::memory_order_relaxed);
    v.reasons.push_back(
        "epoch swap overran its budget: " + std::to_string(swap_ns / 1000000) +
        " ms > " + std::to_string(cfg_.epoch_swap_budget_ms) + " ms");
  }
  v.healthy = v.reasons.empty();
  return v;
}

std::string LiveTelemetry::stats_json() const {
  const std::uint64_t now = wall_now_ms();
  std::string out = "{\"schema\":\"sixdust-stats/1\",";
  append_u64_field(out, "now_ms", now);
  append_u64_field(out, "uptime_ms", now > created_ms_ ? now - created_ms_ : 0);

  // Epoch block.
  out += "\"epoch\":{";
  {
    const std::int64_t last = last_epoch_.load(std::memory_order_relaxed);
    const std::uint64_t pub_ms =
        last_publish_ms_.load(std::memory_order_relaxed);
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"current\":%lld,",
                  static_cast<long long>(last));
    out += buf;
    std::uint64_t published = 0;
    if (cfg_.snaps != nullptr) published = cfg_.snaps->published();
    append_u64_field(out, "published", published);
    append_u64_field(out, "age_ms",
                     pub_ms > 0 && now > pub_ms ? now - pub_ms : 0);
    out += "\"freeze\":";
    freeze_lat_.snapshot().append_stats_json(out);
    out += ",\"publish\":";
    publish_lat_.snapshot().append_stats_json(out);
    out += ",\"drain\":";
    drain_lat_.snapshot().append_stats_json(out);
    std::size_t draining = 0;
    {
      std::lock_guard lk(wd_m_);
      draining = drains_.size();
    }
    out += ",";
    append_u64_field(out, "draining", draining, false);
  }
  out += "},";

  // Per-op server-side latency.
  out += "\"ops\":{";
  for (unsigned i = 0; i < static_cast<unsigned>(OpLane::kCount); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += op_lane_name(static_cast<OpLane>(i));
    out += "\":";
    op_lat_[i].snapshot().append_stats_json(out);
  }
  out += "},";

  // Slow queries.
  out += "\"slow_queries\":{";
  append_u64_field(out, "count", slow_count_.load(std::memory_order_relaxed));
  append_u64_field(out, "threshold_us", cfg_.slow_query_us);
  out += "\"recent\":[";
  {
    std::lock_guard lk(slow_m_);
    bool first = true;
    for (const SlowQuery& q : slow_ring_) {
      if (!first) out += ',';
      first = false;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "{\"t_ms\":%llu,\"op\":\"%s\",\"us\":%llu}",
                    static_cast<unsigned long long>(q.t_ms),
                    op_lane_name(q.lane),
                    static_cast<unsigned long long>(q.us));
      out += buf;
    }
  }
  out += "]},";

  // Reader lanes.
  out += "\"lanes\":[";
  if (server_ != nullptr) {
    const auto lanes = server_->lane_stats();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (i > 0) out += ',';
      out += "{";
      append_u64_field(out, "lane", i);
      append_u64_field(out, "ticks", lanes[i].ticks);
      append_u64_field(out, "conns", lanes[i].conns);
      append_u64_field(out, "inbox", lanes[i].inbox, false);
      out += "}";
    }
  }
  out += "],";

  // Shared pool task accounting (volatile pool.* counters).
  out += "\"pool\":{";
  {
    std::uint64_t tasks = 0, parks = 0;
    if (cfg_.metrics != nullptr) {
      const MetricsSnapshot snap = cfg_.metrics->snapshot();
      for (const MetricSample& m : snap.samples) {
        if (m.kind != MetricKind::kCounter) continue;
        if (m.name == "pool.tasks") {
          tasks = m.value;
        } else if (m.name == "pool.worker_parks") {
          parks = m.value;
        }
      }
    }
    append_u64_field(out, "tasks", tasks);
    append_u64_field(out, "worker_parks", parks, false);
  }
  out += "},";

  // Watchdog verdict.
  out += "\"watchdog\":";
  {
    const WatchdogVerdict v = verdict();
    out += v.json();
    out.insert(out.size() - 1, ",\"epoch_overruns\":" +
                                   std::to_string(epoch_overruns()) +
                                   ",\"slow_queries\":" +
                                   std::to_string(slow_query_count()));
  }
  out += ",";

  // Time-series tail (most recent samples, oldest first).
  out += "\"timeseries\":{";
  append_u64_field(out, "interval_ms", cfg_.sample_interval_ms);
  append_u64_field(out, "retained", timeseries_.size());
  append_u64_field(out, "total", timeseries_.total_samples());
  out += "\"tail\":[";
  {
    const auto tail = timeseries_.tail(2);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (i > 0) out += ',';
      TimeSeriesRecorder::append_sample_json(out, tail[i]);
    }
  }
  out += "]}}";
  return out;
}

HttpServer::Handler scrape_handler(MetricsRegistry* metrics,
                                   LiveTelemetry* telemetry) {
  return [metrics, telemetry](const HttpRequest& req) -> HttpResponse {
    if (req.path == "/metrics" && metrics != nullptr)
      return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                          metrics->snapshot().to_text(true)};
    if (req.path == "/stats" && telemetry != nullptr)
      return HttpResponse{200, "application/json", telemetry->stats_json()};
    if (req.path == "/healthz" && telemetry != nullptr) {
      const WatchdogVerdict v = telemetry->verdict();
      if (v.healthy)
        return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
      return HttpResponse{503, "application/json", v.json() + "\n"};
    }
    if (req.path == "/timeseries" && telemetry != nullptr)
      return HttpResponse{200, "application/x-ndjson",
                          telemetry->timeseries_jsonl()};
    return HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
  };
}

}  // namespace sixdust::serve
