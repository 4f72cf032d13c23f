// Extension bench (beyond the paper's evaluated set): the three discovery
// directions the paper's related work and discussion point at —
// Entropy/IP (the field's origin), 6Hit (reinforcement-driven online
// scanning), and AddrMiner-style seedless generation for the 38 % of
// announced prefixes the hitlist does not cover. All run against the same
// world and seeds as the Table 3/4 evaluation.

#include <cstdio>
#include <unordered_set>

#include "analysis/report.hpp"
#include "netbase/frozen_lpm.hpp"
#include "scanner/zmap6.hpp"
#include "support.hpp"
#include "tga/entropyip.hpp"
#include "tga/seedless.hpp"
#include "tga/sixhit.hpp"

using namespace sixdust;

int main() {
  bench_banner("EXT", "Extensions — Entropy/IP, 6Hit, seedless discovery");
  const auto& tl = bench::full_timeline();
  const ScanDate date{kTimelineScans - 1};

  NewSourceEvaluator::Config ec;
  NewSourceEvaluator evaluator(tl.world.get(), tl.service.get(), ec);
  const auto seeds = evaluator.tga_seeds();
  std::printf("seeds: %zu (Dec-2021 responsive, cleaned)\n\n", seeds.size());

  Table table({"approach", "candidates/probes", "new responsive", "hit rate",
               "new ASes"});

  // Entropy/IP: offline, evaluated exactly like the paper's generators.
  {
    EntropyIp eip{EntropyIp::Config{}};
    const auto rep =
        evaluator.evaluate("Entropy/IP", eip.generate(seeds, 50000));
    table.row({"Entropy/IP (offline)", std::to_string(rep.raw),
               std::to_string(rep.responsive.size()),
               fmt_pct(rep.non_aliased
                           ? static_cast<double>(rep.responsive.size()) /
                                 static_cast<double>(rep.non_aliased)
                           : 0),
               std::to_string(rep.responsive_dist.as_count())});
  }

  // 6Hit: online; its probes go straight through the scanner.
  {
    Zmap6 zmap(Zmap6::Config{.seed = 311, .loss = 0.01, .retries = 1});
    SixHit hit{SixHit::Config{.seed = 7, .region_nibbles = 12,
                              .round_budget = 4096, .rounds = 8,
                              .explore = 0.15}};
    std::uint64_t probes = 0;
    const auto result = hit.run(seeds, [&](const Ipv6& a) {
      ++probes;
      if (tl.service->input().contains(a)) return false;  // only new space
      if (tl.service->aliased().covers(a)) return false;
      return zmap.probe_one(*tl.world, a, Proto::Icmp, date).has_value();
    });
    const auto dist = AsDistribution::of(tl.world->rib(), result.responsive);
    table.row({"6Hit (online, ICMP)", std::to_string(result.probes),
               std::to_string(result.responsive.size()),
               fmt_pct(result.probes
                           ? static_cast<double>(result.responsive.size()) /
                                 static_cast<double>(result.probes)
                           : 0),
               std::to_string(dist.as_count())});
  }

  // Seedless: candidates for announced-but-uncovered prefixes.
  std::size_t uncovered_before = 0;
  std::size_t uncovered_hit = 0;
  {
    Seedless gen{Seedless::Config{}};
    const auto cands = gen.generate(
        tl.world->rib(), tl.service->input().addresses(), 100000);
    // How many announced prefixes have no input coverage? (longest-match
    // attribution of every input address onto the routing table)
    const auto& routes = tl.world->rib().routes();
    std::vector<std::pair<Prefix, std::size_t>> column;
    for (std::size_t i = 0; i < routes.size(); ++i)
      column.emplace_back(routes[i].prefix, i);
    const FrozenLpm<std::size_t> route_index(std::move(column));
    std::vector<bool> covered(routes.size(), false);
    for (const auto& a : tl.service->input().addresses())
      if (const std::size_t* r = route_index.lookup(a)) covered[*r] = true;
    for (bool c : covered)
      if (!c) ++uncovered_before;
    Zmap6 zmap(Zmap6::Config{.seed = 313, .loss = 0.01, .retries = 1});
    const auto scan = zmap.scan(*tl.world, cands, Proto::Icmp, date);
    std::unordered_set<Asn> new_ases;
    for (const auto& rec : scan.responsive) {
      if (auto asn = tl.world->rib().origin(rec.target))
        new_ases.insert(*asn);
    }
    uncovered_hit = scan.responsive.size();
    table.row({"Seedless (AddrMiner-style)", std::to_string(cands.size()),
               std::to_string(scan.responsive.size()),
               fmt_pct(cands.empty()
                           ? 0
                           : static_cast<double>(scan.responsive.size()) /
                                 static_cast<double>(cands.size())),
               std::to_string(new_ases.size())});
  }
  table.print();

  std::printf("\ncontext: %zu of %zu announced prefixes carry no hitlist\n"
              "input (the paper: only 62 %% of announced prefixes covered);\n"
              "seedless generation reaches %zu hosts there without any seed.\n",
              uncovered_before, tl.world->rib().prefix_count(), uncovered_hit);
  bench::report_metric(
      "announced-prefix coverage of the input",
      1.0 - static_cast<double>(uncovered_before) /
                static_cast<double>(tl.world->rib().prefix_count()),
      0.62, 0.4);
  return 0;
}
