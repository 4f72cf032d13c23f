// sixdust-apd: run the multi-level aliased prefix detection on an input
// address list and emit the aliased-prefix list — the standalone face of
// alias::AliasDetector, with optional TCP-fingerprint and Too-Big-Trick
// verification of the findings.

#include <cstdio>

#include "alias/apd.hpp"
#include "alias/tbt.hpp"
#include "alias/tcp_fp.hpp"
#include "cli.hpp"
#include "netbase/addrio.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-apd — multi-level aliased prefix detection

usage: sixdust-apd [options]
  --input FILE       candidate address list (default: the world's public
                     candidates)
  --scan N           scan date index (default 45)
  --rounds N         detection rounds to merge (default 3)
  --loss P           probe loss probability (default 0.01)
  --world-seed N     world seed (default 42)
  --world-scale X    world scale (default 0.1)
  --tail-ases N      procedural long-tail operator ASes (default 200)
  --verify           fingerprint the detected prefixes (TCP + TBT)
  --out FILE         write the aliased prefix list
  --help
)";

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.usage_on_help(kUsage);

  WorldConfig wc;
  wc.seed = args.get_u64("world-seed", 42);
  wc.scale = args.get_double("world-scale", 0.1);
  wc.tail_as_count = static_cast<int>(args.get_u64("tail-ases", 200));
  const auto world = build_world(wc);
  const int scan = static_cast<int>(args.get_u64("scan", 45));

  std::vector<Ipv6> input;
  if (args.has("input")) {
    auto loaded = read_address_file(args.get("input"));
    if (!loaded) cli::die("cannot read '" + args.get("input") + "'");
    input = std::move(*loaded);
  } else {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{scan}, known);
    for (const auto& k : known) input.push_back(k.addr);
  }
  std::printf("input: %zu addresses\n", input.size());

  AliasDetector::Config dc;
  dc.loss = args.get_double("loss", 0.01);
  AliasDetector detector(dc);
  AliasDetector::Detection detection;
  const int rounds = static_cast<int>(args.get_u64("rounds", 3));
  for (int r = 0; r < rounds; ++r)
    detection = detector.detect(*world, input, ScanDate{scan - rounds + 1 + r});

  std::printf("candidates tested: %llu, probes: %llu\n",
              static_cast<unsigned long long>(detection.candidates_tested),
              static_cast<unsigned long long>(detection.probes_sent));
  std::printf("aliased prefixes: %zu\n", detection.aliased.size());

  std::size_t covered = 0;
  for (const auto& a : input)
    if (detection.aliased_set.covers(a)) ++covered;
  std::printf("input addresses covered (would be filtered): %zu (%.1f %%)\n",
              covered,
              input.empty() ? 0.0
                            : 100.0 * static_cast<double>(covered) /
                                  static_cast<double>(input.size()));

  if (args.has("verify")) {
    TcpFingerprinter fper(TcpFingerprinter::Config{});
    const auto fp = fper.run(*world, detection.aliased, ScanDate{scan});
    std::printf("TCP fingerprints: %zu comparable, %zu uniform\n",
                fp.fingerprintable, fp.uniform);
    world->reset_pmtu();
    TooBigTrick tbt(TooBigTrick::Config{});
    const auto t = tbt.run(*world, detection.aliased, ScanDate{scan});
    std::printf("Too Big Trick: %zu usable, %zu single-machine, %zu "
                "load-balanced, %zu independent\n",
                t.usable, t.all_shared, t.partial_shared, t.none_shared);
  }

  if (args.has("out")) {
    if (!write_prefix_file(args.get("out"), detection.aliased,
                           "sixdust-apd aliased prefixes"))
      cli::die("cannot write '" + args.get("out") + "'");
    std::printf("wrote %zu prefixes to %s\n", detection.aliased.size(),
                args.get("out").c_str());
  }
  return 0;
}
