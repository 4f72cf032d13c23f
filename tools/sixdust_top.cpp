// sixdust-top: curses-free terminal watcher for a live sixdust-serve
// daemon. Polls the HTTP telemetry endpoint's /stats and renders per-op
// QPS, server-side latency quantiles, epoch age, and reader-lane state.
// One screenful per poll; --raw appends frames instead of clearing (for
// logs and tests).

#include <cstdio>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/json_mini.hpp"
#include "serve/http.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-top — live terminal watcher for sixdust-serve

usage: sixdust-top [options]
  --connect SPEC     the daemon's --http endpoint: HOST:PORT or
                     unix:/path.sock (default 127.0.0.1:7654)
  --interval-ms N    poll cadence (default 1000)
  --iterations N     frames to render, 0 = until interrupted (default 0)
  --connect-timeout-ms N  keep retrying the first poll this long
                     (default 0 = one attempt)
  --raw              no screen clearing: append frames (CI / piping)
  --help

exit status: 0 = clean; 1 = bad --connect spec or unparsable /stats
payload; 2 = usage error (unknown option); 3 = endpoint unreachable on the
first poll.
)";

/// Exit status for an endpoint that never answered (usage errors exit 2).
constexpr int kExitUnreachable = 3;

struct OpRow {
  std::string name;
  std::uint64_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;
};

struct Frame {
  std::uint64_t now_ms = 0;
  std::uint64_t uptime_ms = 0;
  long long epoch = -1;
  std::uint64_t published = 0;
  std::uint64_t age_ms = 0;
  bool healthy = true;
  std::vector<std::string> reasons;
  std::uint64_t slow = 0;
  std::uint64_t overruns = 0;
  std::vector<OpRow> ops;
  std::uint64_t lanes = 0, lane_conns = 0, lane_inbox = 0;
};

double num(const JsonValue* v) { return v == nullptr ? 0.0 : v->number; }
std::uint64_t u64(const JsonValue* v) { return v == nullptr ? 0 : v->u64(); }

bool parse_frame(const std::string& body, Frame* out) {
  const auto doc = json_parse(body);
  if (!doc || !doc->is_object()) return false;
  out->now_ms = u64(doc->find("now_ms"));
  out->uptime_ms = u64(doc->find("uptime_ms"));
  if (const JsonValue* e = doc->find("epoch"); e != nullptr) {
    out->epoch = e->find("current") ? e->find("current")->i64() : -1;
    out->published = u64(e->find("published"));
    out->age_ms = u64(e->find("age_ms"));
  }
  if (const JsonValue* w = doc->find("watchdog"); w != nullptr) {
    const JsonValue* h = w->find("healthy");
    out->healthy = h == nullptr || h->boolean;
    out->overruns = u64(w->find("epoch_overruns"));
    if (const JsonValue* r = w->find("reasons"); r != nullptr && r->is_array())
      for (const JsonValue& reason : r->arr)
        out->reasons.push_back(reason.str);
  }
  if (const JsonValue* s = doc->find("slow_queries"); s != nullptr)
    out->slow = u64(s->find("count"));
  if (const JsonValue* ops = doc->find("ops"); ops != nullptr)
    for (const auto& [name, v] : ops->obj) {
      OpRow row;
      row.name = name;
      row.count = u64(v.find("count"));
      row.p50 = num(v.find("p50_us"));
      row.p90 = num(v.find("p90_us"));
      row.p99 = num(v.find("p99_us"));
      row.p999 = num(v.find("p999_us"));
      row.max = num(v.find("max_us"));
      out->ops.push_back(std::move(row));
    }
  if (const JsonValue* l = doc->find("lanes"); l != nullptr && l->is_array()) {
    out->lanes = l->arr.size();
    for (const JsonValue& lane : l->arr) {
      out->lane_conns += u64(lane.find("conns"));
      out->lane_inbox += u64(lane.find("inbox"));
    }
  }
  return true;
}

double rate(std::uint64_t cur, std::uint64_t prev, double dt_s) {
  if (dt_s <= 0 || cur < prev) return 0.0;
  return static_cast<double>(cur - prev) / dt_s;
}

void render(const Frame& f, const Frame* prev, bool raw) {
  if (!raw) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
  const double dt_s =
      prev != nullptr && f.now_ms > prev->now_ms
          ? static_cast<double>(f.now_ms - prev->now_ms) / 1000.0
          : 0.0;

  std::printf("sixdust-top — epoch %lld (published %llu, age %.1fs)  "
              "up %.0fs  %s\n",
              f.epoch, static_cast<unsigned long long>(f.published),
              static_cast<double>(f.age_ms) / 1000.0,
              static_cast<double>(f.uptime_ms) / 1000.0,
              f.healthy ? "[healthy]" : "[UNHEALTHY]");
  for (const std::string& r : f.reasons) std::printf("  !! %s\n", r.c_str());

  std::printf("%-11s %10s %9s %9s %9s %9s %9s %9s\n", "op", "count", "qps",
              "p50us", "p90us", "p99us", "p999us", "maxus");
  for (const OpRow& op : f.ops) {
    double qps = 0;
    if (prev != nullptr)
      for (const OpRow& p : prev->ops)
        if (p.name == op.name) {
          qps = rate(op.count, p.count, dt_s);
          break;
        }
    std::printf("%-11s %10llu %9.0f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                op.name.c_str(), static_cast<unsigned long long>(op.count),
                qps, op.p50, op.p90, op.p99, op.p999, op.max);
  }

  std::printf("lanes %llu (conns %llu, inbox %llu)   slow %llu   "
              "overruns %llu\n",
              static_cast<unsigned long long>(f.lanes),
              static_cast<unsigned long long>(f.lane_conns),
              static_cast<unsigned long long>(f.lane_inbox),
              static_cast<unsigned long long>(f.slow),
              static_cast<unsigned long long>(f.overruns));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.usage_on_help(kUsage);

  const std::string spec_str = args.get("connect", "127.0.0.1:7654");
  const auto target = serve::parse_listen_spec(spec_str);
  if (!target) cli::die("bad --connect spec '" + spec_str + "'");
  const auto interval =
      std::chrono::milliseconds(args.get_u64("interval-ms", 1000));
  const std::uint64_t iterations = args.get_u64("iterations", 0);
  const int connect_timeout =
      static_cast<int>(args.get_u64("connect-timeout-ms", 0));
  const bool raw = args.has("raw");

  Frame prev;
  bool have_prev = false;
  for (std::uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
    const auto res =
        serve::http_get(*target, "/stats", 2000, i == 0 ? connect_timeout : 0);
    if (!res || res->status != 200) {
      if (!have_prev) {
        std::fprintf(stderr, "error: cannot fetch /stats from %s\n",
                     target->str().c_str());
        return kExitUnreachable;
      }
      // Transient failure mid-watch: keep trying at the poll cadence.
      std::this_thread::sleep_for(interval);
      continue;
    }
    Frame cur;
    if (!parse_frame(res->body, &cur)) {
      std::fprintf(stderr, "error: unparsable /stats payload\n");
      return 1;
    }
    render(cur, have_prev ? &prev : nullptr, raw);
    prev = std::move(cur);
    have_prev = true;
    if (iterations == 0 || i + 1 < iterations)
      std::this_thread::sleep_for(interval);
  }
  return 0;
}
