// Tests for the target generation algorithms: structural properties of
// each generator (budget adherence, dedup, pattern locality) and their
// behaviour on a synthetic dense address plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "core/thread_pool.hpp"
#include "netbase/hash.hpp"
#include "netbase/prefix.hpp"
#include "tga/distance_clustering.hpp"
#include "tga/entropyip.hpp"
#include "tga/sixgan.hpp"
#include "tga/sixgraph.hpp"
#include "tga/sixtree.hpp"
#include "tga/sixveclm.hpp"

namespace sixdust {

// Print a generator parameter by name. gtest's default shared_ptr printer
// shows the heap address, which puts a different test name in every
// discovery run. Found by ADL, so it lives in TargetGenerator's namespace.
void PrintTo(const std::shared_ptr<TargetGenerator>& g, std::ostream* os) {
  *os << g->name();
}

namespace {

/// A synthetic provider plan: /32 with subnets 0..63 at nibbles 8-9 and
/// hosts ::1/::2 — the kind of structure all generators should learn.
std::vector<Ipv6> plan_seeds(double known = 0.5, std::uint64_t salt = 1) {
  std::vector<Ipv6> seeds;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint64_t iid = 1; iid <= 2; ++iid) {
      if (unit_from_hash(hash_combine(salt, (s << 8) | iid)) > known) continue;
      Ipv6 a = ip("2001:db8::");
      a.set_nibble(8, s >> 4);
      a.set_nibble(9, s & 0xf);
      seeds.push_back(Ipv6::from_words(a.hi(), iid));
    }
  }
  return seeds;
}

bool in_plan(const Ipv6& a) {
  if (!pfx("2001:db8::/32").contains(a)) return false;
  return a.lo() >= 1 && a.lo() <= 2;
}

void expect_sorted_unique(const std::vector<Ipv6>& v) {
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(std::adjacent_find(v.begin(), v.end()), v.end());
}

class GeneratorContract
    : public ::testing::TestWithParam<std::shared_ptr<TargetGenerator>> {};

TEST_P(GeneratorContract, RespectsBudgetAndDedups) {
  const auto seeds = plan_seeds();
  const auto out = GetParam()->generate(seeds, 500);
  EXPECT_LE(out.size(), 500u);
  expect_sorted_unique(out);
}

TEST_P(GeneratorContract, EmptySeedsYieldNothing) {
  EXPECT_TRUE(GetParam()->generate({}, 100).empty());
  const auto seeds = plan_seeds();
  EXPECT_TRUE(GetParam()->generate(seeds, 0).empty());
}

TEST_P(GeneratorContract, DeterministicAcrossRuns) {
  const auto seeds = plan_seeds();
  const auto a = GetParam()->generate(seeds, 300);
  const auto b = GetParam()->generate(seeds, 300);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorContract,
    ::testing::Values(
        std::make_shared<SixTree>(SixTree::Config{}),
        std::make_shared<SixGraph>(SixGraph::Config{}),
        std::make_shared<SixGan>(SixGan::Config{}),
        std::make_shared<SixVecLm>(SixVecLm::Config{}),
        std::make_shared<DistanceClustering>(DistanceClustering::Config{}),
        std::make_shared<EntropyIp>(EntropyIp::Config{})),
    [](const auto& info) {
      std::string n = info.param->name();
      std::erase_if(n, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
      return n;
    });

TEST(SixTreeGen, ExpandsDensePlanWithHighHitRate) {
  const auto seeds = plan_seeds(0.5);
  SixTree tree{SixTree::Config{}};
  const auto out = tree.generate(seeds, 4000);
  ASSERT_FALSE(out.empty());
  std::size_t hits = 0;
  for (const auto& a : out) {
    EXPECT_TRUE(pfx("2001:db8::/32").contains(a)) << a.str();
    if (in_plan(a)) ++hits;
  }
  // The plan has 128 hosts; about half are seeds. 6Tree must rediscover a
  // large share of the rest.
  std::unordered_set<Ipv6, Ipv6Hasher> seed_set(seeds.begin(), seeds.end());
  std::size_t new_hits = 0;
  for (const auto& a : out)
    if (in_plan(a) && !seed_set.contains(a)) ++new_hits;
  EXPECT_GT(new_hits, 30u);
}

TEST(SixGraphGen, WildcardsCoverTheWholePlan) {
  const auto seeds = plan_seeds(0.5);
  SixGraph graph{SixGraph::Config{}};
  const auto out = graph.generate(seeds, 10000);
  std::set<unsigned> subnets;
  for (const auto& a : out) {
    if (!pfx("2001:db8::/32").contains(a)) continue;
    subnets.insert(a.nibble(8) << 4 | a.nibble(9));
  }
  // Wildcarded subnet nibbles: coverage beyond the seeded 64 subnets.
  EXPECT_GE(subnets.size(), 64u);
}

TEST(SixGraphGen, SmallComponentsAreDropped) {
  // Fewer seeds than min_component, pairwise far apart: no patterns.
  std::vector<Ipv6> lonely = {ip("2001:db8::1"), ip("2a00:1450::99"),
                              ip("2600:3c00:1234::7")};
  SixGraph graph{SixGraph::Config{}};
  EXPECT_TRUE(graph.generate(lonely, 1000).empty());
}

TEST(SixGanGen, StaysInsideTrainedClusters) {
  const auto seeds = plan_seeds(0.8);
  SixGan gan{SixGan::Config{}};
  const auto out = gan.generate(seeds, 400);
  ASSERT_FALSE(out.empty());
  for (const auto& a : out)
    EXPECT_TRUE(pfx("2001:db8::/32").contains(a)) << a.str();
}

TEST(SixGanGen, MutationKeepsHitRateLow) {
  const auto seeds = plan_seeds(0.8);
  SixGan gan{SixGan::Config{}};
  const auto out = gan.generate(seeds, 2000);
  std::size_t hits = 0;
  for (const auto& a : out)
    if (in_plan(a)) ++hits;
  // The paper could not reproduce 6GAN's published hit rates either —
  // 0.13 % in their measurement. Allow anything clearly below 6Tree-level.
  EXPECT_LT(static_cast<double>(hits) / static_cast<double>(out.size()), 0.2);
}

TEST(SixVecLmGen, CompletesSeedsConservatively) {
  const auto seeds = plan_seeds(0.8);
  SixVecLm lm{SixVecLm::Config{}};
  const auto out = lm.generate(seeds, 200);
  ASSERT_FALSE(out.empty());
  for (const auto& a : out)
    EXPECT_TRUE(pfx("2001:db8::/32").contains(a)) << a.str();
}

TEST(DistanceClusteringGen, FillsGapsInsideClusters) {
  // 12 seeds in one /64 with gaps of 2: a valid cluster.
  std::vector<Ipv6> seeds;
  for (std::uint64_t i = 0; i < 12; ++i)
    seeds.push_back(ip("2001:db8:1::").plus(1 + 2 * i));
  DistanceClustering dc{DistanceClustering::Config{}};
  const auto out = dc.generate(seeds, 1000);
  // Gaps between min (::1) and max (::17) that are not seeds: 11 even IIDs.
  EXPECT_EQ(out.size(), 11u);
  for (const auto& a : out) {
    EXPECT_GT(a, seeds.front());
    EXPECT_LT(a, seeds.back());
    EXPECT_EQ(a.lo() % 2, 0u);
  }
}

TEST(DistanceClusteringGen, RespectsMinClusterSize) {
  std::vector<Ipv6> seeds;
  for (std::uint64_t i = 0; i < 9; ++i)  // one below the threshold
    seeds.push_back(ip("2001:db8:1::").plus(1 + 2 * i));
  DistanceClustering dc{DistanceClustering::Config{}};
  EXPECT_TRUE(dc.generate(seeds, 1000).empty());
}

TEST(DistanceClusteringGen, RespectsMaxDistance) {
  // Two dense runs separated by a gap > 64: two clusters, the gap stays
  // unfilled.
  std::vector<Ipv6> seeds;
  for (std::uint64_t i = 0; i < 10; ++i)
    seeds.push_back(ip("2001:db8:1::").plus(1 + i));
  for (std::uint64_t i = 0; i < 10; ++i)
    seeds.push_back(ip("2001:db8:1::1000").plus(i));
  DistanceClustering dc{DistanceClustering::Config{}};
  const auto out = dc.generate(seeds, 10000);
  for (const auto& a : out)
    EXPECT_TRUE(a.lo() < 0x20 || a.lo() >= 0x1000) << a.str();
}

TEST(DistanceClusteringGen, IgnoresCrossSlash64Runs) {
  // Addresses in different /64s have "infinite" distance.
  std::vector<Ipv6> seeds;
  for (std::uint64_t i = 0; i < 20; ++i) {
    Ipv6 a = ip("2001:db8::");
    a.set_nibble(15, static_cast<unsigned>(i & 0xf));
    seeds.push_back(Ipv6::from_words(a.hi(), 1));
  }
  DistanceClustering dc{DistanceClustering::Config{}};
  EXPECT_TRUE(dc.generate(seeds, 1000).empty());
}

/// A wider plan (several /48s, hundreds of hosts each) so the parallel
/// paths actually chunk: leaf fan-out in 6Tree, cluster fan-out in 6GAN /
/// Entropy/IP, and the radix dedup all cross their sequential cutoffs.
std::vector<Ipv6> wide_seeds() {
  std::vector<Ipv6> seeds;
  for (std::uint32_t net = 0; net < 12; ++net) {
    for (std::uint32_t s = 0; s < 16; ++s) {
      for (std::uint64_t iid = 1; iid <= 20; ++iid) {
        if (unit_from_hash(hash_combine(net, (s << 8) | iid)) > 0.7) continue;
        Ipv6 a = ip("2001:db8::");
        a.set_nibble(8, net & 0xf);
        a.set_nibble(9, s);
        seeds.push_back(Ipv6::from_words(a.hi(), iid));
      }
    }
  }
  return seeds;
}

/// The batch contract of DESIGN.md §12: generator output is byte-identical
/// for every thread count, including no pool at all. (The suite name
/// matches the tsan-concurrency preset filter, so the parallel paths also
/// run under TSan.)
TEST(TgaThreadInvariance, GeneratorsAreByteIdenticalAtAnyThreadCount) {
  const std::vector<std::shared_ptr<TargetGenerator>> generators = {
      std::make_shared<SixTree>(SixTree::Config{}),
      std::make_shared<SixGraph>(SixGraph::Config{}),
      std::make_shared<SixGan>(SixGan::Config{}),
      std::make_shared<SixVecLm>(SixVecLm::Config{}),
      std::make_shared<DistanceClustering>(DistanceClustering::Config{}),
      std::make_shared<EntropyIp>(EntropyIp::Config{})};
  const auto seeds = wide_seeds();
  ASSERT_GT(seeds.size(), 512u);  // deep enough to hit the radix path
  for (const auto& gen : generators) {
    const auto sequential = gen->generate(seeds, 3000);
    for (const unsigned threads : {1u, 2u, 7u}) {
      const auto pool = ThreadPool::create(threads);
      gen->set_pool(pool.get());
      const auto parallel = gen->generate(seeds, 3000);
      gen->set_pool(nullptr);  // pool dies at loop end
      EXPECT_EQ(parallel, sequential)
          << gen->name() << " with " << threads << " threads";
    }
  }
}

TEST(Nibbles, RoundTrip) {
  const Ipv6 a = ip("2001:db8:85a3::8a2e:370:7334");
  EXPECT_EQ(from_nibbles(to_nibbles(a)), a);
  Nibbles n = to_nibbles(a);
  EXPECT_EQ(n[0], 0x2);
  EXPECT_EQ(n[1], 0x0);
  EXPECT_EQ(n[31], 0x4);
}

}  // namespace
}  // namespace sixdust
