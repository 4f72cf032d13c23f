// sixdust-scan: ZMapv6-style scan of an address list against a simulated
// world. Reads targets from a file (or generates them from the world's
// public sources), writes the responsive list, and reports per-protocol
// statistics — a command-line face for scanner::Zmap6.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include <fstream>

#include "cli.hpp"
#include "netbase/addrio.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scanner/zmap6.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-scan — scan targets in a simulated IPv6 Internet

usage: sixdust-scan [options]
  --targets FILE     address list to scan (default: the world's public
                     candidates)
  --proto NAME       icmp | tcp80 | tcp443 | udp53 | udp443 | all (default)
  --scan N           scan date index 0..45 (default 45)
  --world-seed N     world seed (default 42)
  --world-scale X    world scale (default 0.1 = test world)
  --tail-ases N      procedural long-tail operator ASes (default 200)
  --loss P           probe loss probability (default 0.01)
  --retries N        retransmissions (default 1)
  --threads N        scanner threads, 0 = all cores (default 1; output is
                     identical for every value)
  --blocklist FILE   prefix list to exclude
  --out FILE         write responsive addresses (proto=all: any protocol)
  --metrics-out FILE write the run-telemetry snapshot as JSON
  --trace-out FILE   write a Chrome trace-event file of the run (open in
                     Perfetto / chrome://tracing)
  --log-level LEVEL  debug | info | warn (default) | error | off
  --help
)";

/// Write `content` to `path`; any open/write failure is a hard error —
/// telemetry silently going missing defeats its purpose.
void write_file_or_die(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) cli::die("cannot open '" + path + "' for writing");
  f << content;
  f.flush();
  if (!f.good()) cli::die("cannot write '" + path + "'");
}

std::optional<Proto> parse_proto(const std::string& name) {
  if (name == "icmp") return Proto::Icmp;
  if (name == "tcp80") return Proto::Tcp80;
  if (name == "tcp443") return Proto::Tcp443;
  if (name == "udp53") return Proto::Udp53;
  if (name == "udp443") return Proto::Udp443;
  return std::nullopt;
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

  WorldConfig wc;
  wc.seed = args.get_u64("world-seed", 42);
  wc.scale = args.get_double("world-scale", 0.1);
  wc.tail_as_count = static_cast<int>(args.get_u64("tail-ases", 200));
  const auto world = build_world(wc);
  const ScanDate date{static_cast<int>(args.get_u64("scan", 45))};

  std::vector<Ipv6> targets;
  if (args.has("targets")) {
    std::size_t bad_line = 0;
    auto loaded = read_address_file(args.get("targets"), &bad_line);
    if (!loaded)
      cli::die("cannot read targets from '" + args.get("targets") +
               "' (line " + std::to_string(bad_line) + ")");
    targets = std::move(*loaded);
  } else {
    // enumerate_known can list an address more than once; scan each once,
    // in first-seen order.
    std::vector<KnownAddress> known;
    world->enumerate_known(date, known);
    std::unordered_set<Ipv6, Ipv6Hasher> seen;
    targets.reserve(known.size());
    for (const auto& k : known)
      if (seen.insert(k.addr).second) targets.push_back(k.addr);
  }
  std::printf("targets: %zu, date %s\n", targets.size(), date.str().c_str());

  PrefixSet blocklist;
  if (args.has("blocklist")) {
    auto prefixes = read_prefix_file(args.get("blocklist"));
    if (!prefixes) cli::die("cannot read blocklist");
    blocklist = PrefixSet(*prefixes);
  }

  MetricsRegistry metrics;
  std::optional<TraceRecorder> tracer;
  if (args.has("trace-out")) {
    tracer.emplace();
    metrics.set_tracer(&*tracer);
  }
  Zmap6::Config zc;
  zc.loss = args.get_double("loss", 0.01);
  zc.retries = static_cast<int>(args.get_u64("retries", 1));
  zc.threads = static_cast<unsigned>(args.get_u64("threads", 1));
  zc.blocklist = &blocklist;
  zc.metrics = &metrics;
  Zmap6 zmap(zc);

  std::vector<Proto> protos;
  const std::string proto_arg = args.get("proto", "all");
  if (proto_arg == "all") {
    protos.assign(kAllProtos.begin(), kAllProtos.end());
  } else {
    auto p = parse_proto(proto_arg);
    if (!p) cli::die("unknown protocol '" + proto_arg + "'");
    protos.push_back(*p);
  }

  std::unordered_set<Ipv6, Ipv6Hasher> responsive_any;
  for (Proto p : protos) {
    const auto result = zmap.scan(*world, targets, p, date);
    std::printf("%-8s probes=%llu blocked=%llu responsive=%zu (%.1f %%)\n",
                proto_name(p).c_str(),
                static_cast<unsigned long long>(result.probes_sent),
                static_cast<unsigned long long>(result.blocked),
                result.responsive.size(),
                targets.empty() ? 0.0
                                : 100.0 * static_cast<double>(result.responsive.size()) /
                                      static_cast<double>(targets.size()));
    for (const auto& rec : result.responsive) responsive_any.insert(rec.target);
    // Sequential point between protocol scans: move the simulated
    // timeline past the scan just consumed (same pacing the service
    // applies), so successive scan spans do not overlap.
    if (tracer) tracer->sim_advance_seconds(result.duration_seconds);
  }
  std::printf("responsive to >=1 protocol: %zu\n", responsive_any.size());

  if (args.has("out")) {
    std::vector<Ipv6> out(responsive_any.begin(), responsive_any.end());
    std::sort(out.begin(), out.end());
    if (!write_address_file(args.get("out"), out, "sixdust-scan responsive"))
      cli::die("cannot write '" + args.get("out") + "'");
    std::printf("wrote %zu addresses to %s\n", out.size(),
                args.get("out").c_str());
  }

  if (args.has("metrics-out")) {
    write_file_or_die(args.get("metrics-out"), metrics.snapshot().to_json());
    std::printf("metrics written to %s\n", args.get("metrics-out").c_str());
  }

  if (tracer) {
    metrics.set_tracer(nullptr);
    write_file_or_die(args.get("trace-out"), tracer->chrome_json());
    std::printf("trace written to %s\n", args.get("trace-out").c_str());
  }
  return 0;
}
