// sixdust-tga: generate IPv6 target candidates from a seed list with any
// of the implemented generation algorithms, optionally scanning the
// candidates to measure the hit rate.

#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_set>

#include "cli.hpp"
#include "core/thread_pool.hpp"
#include "netbase/addrio.hpp"
#include "obs/metrics.hpp"
#include "scanner/zmap6.hpp"
#include "tga/distance_clustering.hpp"
#include "tga/entropyip.hpp"
#include "tga/sixgan.hpp"
#include "tga/sixgraph.hpp"
#include "tga/sixtree.hpp"
#include "tga/sixveclm.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-tga — IPv6 target generation

usage: sixdust-tga --algorithm NAME [options]
  --algorithm NAME   6tree | 6graph | 6gan | 6veclm | dc | entropyip
  --seeds FILE       seed address list (default: responsive addresses of
                     the simulated world's public candidates)
  --budget N         candidate budget (default 10000)
  --threads N        worker threads for generation, 0 = all cores
                     (default 1; output is byte-identical at any count)
  --scan             scan the candidates and report the hit rate
  --world-seed N     world seed (default 42)
  --world-scale X    world scale (default 0.1)
  --tail-ases N      procedural long-tail operator ASes (default 200)
  --out FILE         write generated candidates
  --metrics-out FILE write the tga.* telemetry snapshot as JSON
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

std::unique_ptr<TargetGenerator> generator_named(const std::string& name) {
  if (name == "6tree") return std::make_unique<SixTree>(SixTree::Config{});
  if (name == "6graph") return std::make_unique<SixGraph>(SixGraph::Config{});
  if (name == "6gan") return std::make_unique<SixGan>(SixGan::Config{});
  if (name == "6veclm") return std::make_unique<SixVecLm>(SixVecLm::Config{});
  if (name == "dc")
    return std::make_unique<DistanceClustering>(DistanceClustering::Config{});
  if (name == "entropyip")
    return std::make_unique<EntropyIp>(EntropyIp::Config{});
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.usage_on_help(kUsage);

  auto generator = generator_named(args.get("algorithm", "6tree"));
  if (generator == nullptr)
    cli::die("unknown algorithm '" + args.get("algorithm") + "'");

  const auto pool =
      ThreadPool::create(static_cast<unsigned>(args.get_u64("threads", 1)));
  MetricsRegistry metrics;
  generator->set_pool(pool.get());
  generator->set_metrics(&metrics);

  WorldConfig wc;
  wc.seed = args.get_u64("world-seed", 42);
  wc.scale = args.get_double("world-scale", 0.1);
  wc.tail_as_count = static_cast<int>(args.get_u64("tail-ases", 200));
  const auto world = build_world(wc);
  const ScanDate date{45};

  std::vector<Ipv6> seeds;
  if (args.has("seeds")) {
    auto loaded = read_address_file(args.get("seeds"));
    if (!loaded) cli::die("cannot read '" + args.get("seeds") + "'");
    seeds = std::move(*loaded);
  } else {
    std::vector<KnownAddress> known;
    world->enumerate_known(date, known);
    for (const auto& k : known)
      if (world->truth_host(k.addr, date)) seeds.push_back(k.addr);
  }
  std::printf("%s: %zu seeds\n", generator->name().c_str(), seeds.size());

  const auto candidates =
      generator->generate(seeds, args.get_u64("budget", 10000));
  std::printf("generated %zu candidates\n", candidates.size());

  if (args.has("scan")) {
    Zmap6 zmap(Zmap6::Config{.seed = 77, .loss = 0.01, .retries = 1});
    std::unordered_set<Ipv6, Ipv6Hasher> responsive;
    for (Proto p : kAllProtos) {
      const auto result = zmap.scan(*world, candidates, p, date);
      for (const auto& rec : result.responsive) responsive.insert(rec.target);
    }
    std::printf("responsive candidates: %zu (hit rate %.2f %%)\n",
                responsive.size(),
                candidates.empty()
                    ? 0.0
                    : 100.0 * static_cast<double>(responsive.size()) /
                          static_cast<double>(candidates.size()));
  }

  if (args.has("out")) {
    if (!write_address_file(args.get("out"), candidates,
                            generator->name() + " candidates"))
      cli::die("cannot write '" + args.get("out") + "'");
    std::printf("wrote %zu candidates to %s\n", candidates.size(),
                args.get("out").c_str());
  }
  if (args.has("metrics-out")) {
    write_file_or_die(args.get("metrics-out"), metrics.snapshot().to_json());
    std::printf("metrics written to %s\n", args.get("metrics-out").c_str());
  }
  return 0;
}
