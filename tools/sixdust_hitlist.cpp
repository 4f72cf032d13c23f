// sixdust-hitlist: run the full hitlist service pipeline for N scans and
// publish its data — per-scan responsive lists, the aliased-prefix list,
// the exclusion pool, GFW taint records, and a binary archive.

#include <cstdio>

#include <fstream>
#include <optional>

#include "cli.hpp"
#include "hitlist/archive.hpp"
#include "hitlist/report_gen.hpp"
#include "hitlist/service.hpp"
#include "netbase/addrio.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-hitlist — run the IPv6 Hitlist service pipeline

usage: sixdust-hitlist [options]
  --scans N          number of monthly scans to run (default 12, max 46)
  --world-seed N     world seed (default 42)
  --world-scale X    world scale (default 0.1 = test world)
  --tail-ases N      procedural long-tail operator ASes (default 200)
  --no-gfw-filter    run the pre-2022 pipeline (published, spiky view)
  --gfw-filter-from N  filter deployment scan (default 43)
  --threads N        worker threads for the probe stages, 0 = all cores
                     (default 1; results are identical for every value)
  --blocklist FILE   prefix list of opt-out networks
  --outdir DIR       publish data files into DIR (address/prefix lists,
                     markdown report, timeline + AS-distribution CSVs)
  --archive FILE     additionally save the binary archive
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

  std::optional<TraceRecorder> tracer;
  if (args.has("trace-out")) tracer.emplace();

  HitlistService::Config sc;
  if (tracer) sc.tracer = &*tracer;
  sc.enable_gfw_filter = !args.has("no-gfw-filter");
  sc.gfw_filter_from_scan =
      static_cast<int>(args.get_u64("gfw-filter-from", 43));
  sc.threads = static_cast<unsigned>(args.get_u64("threads", 1));
  if (args.has("blocklist")) {
    auto prefixes = read_prefix_file(args.get("blocklist"));
    if (!prefixes) cli::die("cannot read blocklist");
    sc.blocklist_prefixes = std::move(*prefixes);
  }
  HitlistService service(sc);

  const int scans = static_cast<int>(args.get_u64("scans", 12));
  for (int i = 0; i < scans && i < kTimelineScans; ++i) {
    const auto outcome = service.step(*world, ScanDate{i});
    std::printf(
        "scan %2d (%s): input=%zu targets=%zu aliased=%zu responsive=%zu\n",
        i, outcome.date.str().c_str(), outcome.input_total,
        outcome.scan_targets, outcome.aliased_count, outcome.responsive_any);
  }

  const auto& gfw = service.gfw();
  std::printf("\nGFW taint records: %zu; exclusion pool: %zu; aliased: %zu\n",
              gfw.tainted_count(), service.unresponsive_pool().size(),
              service.aliased_list().size());

  if (args.has("outdir")) {
    const std::string dir = args.get("outdir");
    // Final responsive set (cleaned).
    std::vector<Ipv6> responsive;
    for (const auto& [a, mask] :
         service.history().at(scans - 1).responsive) {
      if (gfw.tainted(a) && (mask & ~proto_bit(Proto::Udp53)) == 0) continue;
      responsive.push_back(a);
    }
    if (!write_address_file(dir + "/responsive.txt", responsive,
                            "responsive addresses (GFW-cleaned)"))
      cli::die("cannot write into '" + dir + "'");
    (void)write_prefix_file(dir + "/aliased.txt", service.aliased_list(),
                            "aliased (fully responsive) prefixes");
    (void)write_address_file(dir + "/unresponsive-pool.txt",
                             service.unresponsive_pool(),
                             "30-day-filter exclusion pool");
    std::vector<Ipv6> tainted;
    for (const auto& [a, rec] : gfw.taint_records()) tainted.push_back(a);
    std::sort(tainted.begin(), tainted.end());
    (void)write_address_file(dir + "/gfw-tainted.txt", tainted,
                             "addresses with >=1 injected DNS response");
    ServiceReport report(&service, &world->rib(), &world->registry());
    std::ofstream(dir + "/REPORT.md") << report.markdown();
    std::ofstream(dir + "/timeline.csv") << report.timeline_csv();
    std::ofstream(dir + "/as-distribution.csv")
        << report.as_distribution_csv();
    std::printf("published data files into %s/\n", dir.c_str());
  }

  if (args.has("archive")) {
    // Fingerprint = world seed, so archives of different run lengths over
    // the same world stay comparable with sixdust-diff.
    const std::uint64_t fp = wc.seed;
    if (!ServiceArchive::save(service, fp, args.get("archive")))
      cli::die("cannot write archive");
    std::printf("archive saved to %s (fingerprint %llu)\n",
                args.get("archive").c_str(),
                static_cast<unsigned long long>(fp));
  }

  if (args.has("metrics-out")) {
    write_file_or_die(args.get("metrics-out"),
                      service.metrics().snapshot().to_json());
    std::printf("metrics written to %s\n", args.get("metrics-out").c_str());
  }

  if (tracer) {
    write_file_or_die(args.get("trace-out"), tracer->chrome_json());
    std::printf("trace written to %s (%zu spans dropped)\n",
                args.get("trace-out").c_str(),
                static_cast<std::size_t>(tracer->dropped()));
  }
  return 0;
}
