// Tests for the extension generators: 6Hit (reinforcement-driven, online)
// and the AddrMiner-style seedless generator.

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/thread_pool.hpp"
#include "netbase/hash.hpp"
#include "tga/seedless.hpp"
#include "tga/sixhit.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

// A synthetic ground truth with one rich region and one barren region.
struct TwoRegions {
  Prefix rich = pfx("2001:db8:1:1::/64");
  Prefix barren = pfx("2001:db8:2:2::/64");

  [[nodiscard]] bool responds(const Ipv6& a) const {
    // Rich region: IIDs 1..4096 are alive; barren region: nothing.
    return rich.contains(a) && a.lo() >= 1 && a.lo() <= 4096;
  }

  [[nodiscard]] std::vector<Ipv6> seeds() const {
    std::vector<Ipv6> s;
    for (std::uint64_t i = 1; i <= 8; ++i)
      s.push_back(Ipv6::from_words(rich.base().hi(), i * 3));
    for (std::uint64_t i = 1; i <= 8; ++i)
      s.push_back(Ipv6::from_words(barren.base().hi(), i * 3));
    return s;
  }
};

TEST(SixHit, ShiftsBudgetTowardRewardingRegions) {
  TwoRegions world;
  SixHit hit{SixHit::Config{}};
  std::uint64_t rich_probes = 0;
  std::uint64_t barren_probes = 0;
  const auto result = hit.run(world.seeds(), [&](const Ipv6& a) {
    if (world.rich.contains(a)) ++rich_probes;
    if (world.barren.contains(a)) ++barren_probes;
    return world.responds(a);
  });
  EXPECT_EQ(result.regions, 2u);
  EXPECT_GT(result.probes, 500u);
  // Reinforcement: the rich region must attract most of the budget.
  EXPECT_GT(rich_probes, barren_probes * 2);
  // And the hits are real.
  for (const auto& a : result.responsive) EXPECT_TRUE(world.responds(a));
  EXPECT_GT(result.responsive.size(), 100u);
}

TEST(SixHit, HandlesEmptySeedsAndDeadWorlds) {
  SixHit hit{SixHit::Config{}};
  const auto empty = hit.run({}, [](const Ipv6&) { return true; });
  EXPECT_EQ(empty.probes, 0u);
  TwoRegions world;
  const auto dead = hit.run(world.seeds(), [](const Ipv6&) { return false; });
  EXPECT_TRUE(dead.responsive.empty());
  EXPECT_GT(dead.probes, 0u);  // exploration floor keeps probing
}

TEST(SixHit, ProbesAreNeverRepeated) {
  TwoRegions world;
  std::unordered_set<Ipv6, Ipv6Hasher> seen;
  bool repeated = false;
  SixHit hit{SixHit::Config{}};
  (void)hit.run(world.seeds(), [&](const Ipv6& a) {
    if (!seen.insert(a).second) repeated = true;
    return world.responds(a);
  });
  EXPECT_FALSE(repeated);
}

TEST(SixHit, WorksAgainstTheSimulatedInternet) {
  auto w = build_test_world(91);
  std::vector<KnownAddress> known;
  w->enumerate_known(ScanDate{45}, known);
  std::vector<Ipv6> seeds;
  for (const auto& k : known) {
    if (w->truth_host(k.addr, ScanDate{45})) seeds.push_back(k.addr);
    if (seeds.size() == 300) break;
  }
  SixHit hit{SixHit::Config{.seed = 1, .region_nibbles = 12,
                            .round_budget = 256, .rounds = 4,
                            .explore = 0.2}};
  const auto result = hit.run(seeds, [&](const Ipv6& a) {
    return w->probe(a, Proto::Icmp, ScanDate{45});
  });
  EXPECT_GT(result.responsive.size(), 10u);
}

TEST(Seedless, CoversOnlyUnseededPrefixes) {
  const Rib rib({{pfx("2001:db8::/32"), 1},
                 {pfx("2a00:1450::/32"), 2},
                 {pfx("2a02:26f0::/48"), 3}});
  const std::vector<Ipv6> covered = {ip("2001:db8:42::1")};  // AS1 seeded

  Seedless gen{Seedless::Config{}};
  const auto cands = gen.generate(rib, covered, 10000);
  ASSERT_FALSE(cands.empty());
  for (const auto& a : cands) {
    EXPECT_FALSE(pfx("2001:db8::/32").contains(a)) << a.str();
    EXPECT_TRUE(pfx("2a00:1450::/32").contains(a) ||
                pfx("2a02:26f0::/48").contains(a))
        << a.str();
  }
  // Conventional IIDs are present.
  std::unordered_set<Ipv6, Ipv6Hasher> set(cands.begin(), cands.end());
  EXPECT_TRUE(set.contains(ip("2a00:1450::1")));
  EXPECT_TRUE(set.contains(ip("2a00:1450::53")));
  EXPECT_TRUE(set.contains(ip("2a02:26f0::443")));
}

TEST(Seedless, RespectsBudget) {
  std::vector<Rib::Route> routes;
  for (int i = 0; i < 100; ++i) {
    Ipv6 base = Ipv6::from_words((0x2a10ULL << 48) | (std::uint64_t(i) << 32), 0);
    routes.push_back({Prefix::make(base, 32), 1000u + static_cast<Asn>(i)});
  }
  const Rib rib(std::move(routes));
  Seedless gen{Seedless::Config{}};
  const auto cands = gen.generate(rib, {}, 73);
  EXPECT_LE(cands.size(), 73u);
  EXPECT_GE(cands.size(), 60u);
}

TEST(TgaThreadInvarianceSeedless, ByteIdenticalAtAnyThreadCount) {
  // The covered-route marking fans out over the pool; the emitted list
  // must not depend on the thread count (DESIGN.md §12 contract).
  auto w = build_test_world(93);
  std::vector<KnownAddress> known;
  w->enumerate_known(ScanDate{45}, known);
  std::vector<Ipv6> covered;
  for (const auto& k : known) covered.push_back(k.addr);
  Seedless gen{Seedless::Config{}};
  const auto sequential = gen.generate(w->rib(), covered, 5000);
  for (const unsigned threads : {2u, 7u}) {
    const auto pool = ThreadPool::create(threads);
    gen.set_pool(pool.get());
    const auto parallel = gen.generate(w->rib(), covered, 5000);
    gen.set_pool(nullptr);
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }
}

TEST(Seedless, FindsRealHostsInTheSimulatedTail) {
  // Tail operators populate ::1 — exactly the convention the generator
  // bets on; this is why AddrMiner-style discovery works at all.
  auto w = build_test_world(92);
  std::vector<Ipv6> covered;  // pretend the hitlist knows nothing
  Seedless gen{Seedless::Config{}};
  const auto cands = gen.generate(w->rib(), covered, 50000);
  std::size_t hits = 0;
  for (const auto& a : cands)
    if (w->truth_host(a, ScanDate{45})) ++hits;
  EXPECT_GT(hits, 50u);
}

}  // namespace
}  // namespace sixdust
