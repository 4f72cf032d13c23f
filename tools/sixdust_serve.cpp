// sixdust-serve: the long-running hitlist daemon. Runs scan epochs
// continuously and serves concurrent hitlist/alias/origin queries against
// immutable per-epoch snapshots over a length-prefixed binary protocol
// (see DESIGN.md §13). Pair with sixdust-loadgen for client load.

#include <cstdio>

#include <chrono>
#include <fstream>
#include <optional>
#include <thread>

#include "cli.hpp"
#include "netbase/addrio.hpp"
#include "obs/log.hpp"
#include "serve/daemon.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-serve — long-running hitlist daemon with a query front-end

usage: sixdust-serve [options]
  --listen SPEC      where to serve queries: HOST:PORT (TCP, port 0 =
                     ephemeral) or unix:/path.sock (default 127.0.0.1:7653)
  --readers N        poll lanes serving connections (default 2)
  --epochs N         scan epochs to run, 0 = the full timeline (default 12)
  --epoch-interval-ms N  pause between epochs while serving (default 0)
  --linger-ms N      keep serving this long after the last epoch (default 0)
  --world-seed N     world seed (default 42)
  --world-scale X    world scale (default 0.1 = test world)
  --threads N        worker threads for the probe stages, 0 = all cores
  --no-gfw-filter    run the pre-2022 pipeline
  --blocklist FILE   prefix list of opt-out networks
  --snapshot-log FILE  write the per-epoch record stream
                     (sixdust-serve-epochs/1 JSON) on exit
  --metrics-out FILE write the run-telemetry snapshot as JSON on exit
  --metrics-interval-ms N  also rewrite --metrics-out atomically every N ms
                     while running (temp + rename; default 0 = exit only)
  --http SPEC        serve the live telemetry plane over HTTP/1.0 on a
                     second socket: /metrics /stats /healthz /timeseries
                     (HOST:PORT or unix:/path.sock; default off)
  --sample-interval-ms N  time-series + watchdog sampling cadence
                     (default 1000)
  --slow-query-us N  slow-query threshold (default 10000)
  --slow-query-log FILE  append slow queries as JSONL
  --epoch-budget-ms N  watchdog budget for one freeze+publish swap
                     (default 5000)
  --timeseries-out FILE  write the sixdust-timeseries/1 JSONL on exit
  --log-level LEVEL  debug | info | warn (default) | error | off
  --help

The stable half of every export is byte-identical to a batch
sixdust-hitlist run of the same world — serving never perturbs the
simulation (the serve.* metrics are volatile by design).
)";

/// Fail fast on output paths: a daemon must refuse to start if it will be
/// unable to publish its telemetry hours later.
void require_writable(const std::string& path) {
  std::ofstream f(path);
  if (!f) cli::die("cannot open '" + path + "' for writing");
}

void write_file_or_die(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) cli::die("cannot open '" + path + "' for writing");
  f << content;
  f.flush();
  if (!f.good()) cli::die("cannot write '" + path + "'");
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.usage_on_help(kUsage);

  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level"));
    if (!level) cli::die("unknown log level '" + args.get("log-level") + "'");
    Logger::global().set_level(*level);
  }

  // Validate everything that can fail *before* the (slow) world build.
  const std::string listen_str = args.get("listen", "127.0.0.1:7653");
  const auto listen = serve::parse_listen_spec(listen_str);
  if (!listen)
    cli::die("bad --listen spec '" + listen_str +
             "' (want HOST:PORT or unix:/path.sock)");
  std::optional<serve::ListenSpec> http;
  if (args.has("http")) {
    const std::string http_str = args.get("http");
    http = serve::parse_listen_spec(http_str);
    if (!http)
      cli::die("bad --http spec '" + http_str +
               "' (want HOST:PORT or unix:/path.sock)");
  }
  if (args.has("metrics-out")) require_writable(args.get("metrics-out"));
  if (args.has("snapshot-log")) require_writable(args.get("snapshot-log"));
  if (args.has("timeseries-out")) require_writable(args.get("timeseries-out"));

  WorldConfig wc;
  wc.seed = args.get_u64("world-seed", 42);
  wc.scale = args.get_double("world-scale", 0.1);
  const auto world = build_world(wc);

  HitlistService::Config sc;
  sc.enable_gfw_filter = !args.has("no-gfw-filter");
  sc.threads = static_cast<unsigned>(args.get_u64("threads", 1));
  if (args.has("blocklist")) {
    auto prefixes = read_prefix_file(args.get("blocklist"));
    if (!prefixes) cli::die("cannot read blocklist");
    sc.blocklist_prefixes = std::move(*prefixes);
  }
  HitlistService service(sc);

  serve::SnapshotManager snaps(&service.metrics());

  serve::LiveTelemetry::Config tcfg;
  tcfg.metrics = &service.metrics();
  tcfg.snaps = &snaps;
  tcfg.sample_interval_ms = args.get_u64("sample-interval-ms", 1000);
  tcfg.metrics_out = args.get("metrics-out", "");
  tcfg.metrics_interval_ms = args.get_u64("metrics-interval-ms", 0);
  tcfg.slow_query_us = args.get_u64("slow-query-us", 10000);
  tcfg.slow_query_log = args.get("slow-query-log", "");
  tcfg.epoch_swap_budget_ms = args.get_u64("epoch-budget-ms", 5000);
  serve::LiveTelemetry telemetry(tcfg);

  serve::Server::Config server_cfg;
  server_cfg.listen = *listen;
  server_cfg.readers = static_cast<unsigned>(args.get_u64("readers", 2));
  server_cfg.metrics = &service.metrics();
  server_cfg.pool = service.pool();  // null at --threads 1: plain threads
  server_cfg.telemetry = &telemetry;
  serve::Server server(server_cfg, &snaps);
  std::string error;
  if (!server.start(&error)) cli::die("cannot serve: " + error);
  telemetry.set_server(&server);
  if (!telemetry.start(&error)) cli::die("cannot start telemetry: " + error);
  std::printf("serving on %s\n", server.endpoint().c_str());

  std::optional<serve::HttpServer> http_server;
  if (http) {
    serve::HttpServer::Config hcfg;
    hcfg.listen = *http;
    hcfg.metrics = &service.metrics();
    hcfg.pool = service.pool();
    hcfg.handler = serve::scrape_handler(&service.metrics(), &telemetry);
    http_server.emplace(std::move(hcfg));
    if (!http_server->start(&error)) cli::die("cannot serve http: " + error);
    std::printf("telemetry on http://%s\n", http_server->endpoint().c_str());
  }

  int epochs = static_cast<int>(args.get_u64("epochs", 12));
  if (epochs <= 0 || epochs > kTimelineScans) epochs = kTimelineScans;
  const auto interval =
      std::chrono::milliseconds(args.get_u64("epoch-interval-ms", 0));

  serve::EpochPublisher publisher(&service, world.get(), &snaps, &telemetry);
  service.run(*world, epochs, [&](const HitlistService::ScanOutcome& o) {
    publisher.on_epoch(o);
    std::printf("epoch %2d (%s): input=%zu targets=%zu aliased=%zu "
                "responsive=%zu\n",
                o.date.index, o.date.str().c_str(), o.input_total,
                o.scan_targets, o.aliased_count, o.responsive_any);
    std::fflush(stdout);
    if (interval.count() > 0) std::this_thread::sleep_for(interval);
  });

  const auto linger = std::chrono::milliseconds(args.get_u64("linger-ms", 0));
  if (linger.count() > 0) std::this_thread::sleep_for(linger);
  if (http_server) http_server->stop();
  telemetry.stop();
  server.stop();

  if (args.has("timeseries-out"))
    write_file_or_die(args.get("timeseries-out"), telemetry.timeseries_jsonl());
  if (args.has("snapshot-log"))
    write_file_or_die(args.get("snapshot-log"), publisher.records_json());
  if (args.has("metrics-out"))
    write_file_or_die(args.get("metrics-out"),
                      service.metrics().snapshot().to_json());

  const auto snap = snaps.current();
  std::printf("served %llu epoch swaps; final epoch %d (%llu responsive)\n",
              static_cast<unsigned long long>(snaps.published()),
              snap ? snap->epoch() : -1,
              snap ? static_cast<unsigned long long>(snap->info().responsive)
                   : 0ULL);
  return 0;
}
