// Tests for the scanner module: cyclic-group permutation properties,
// ZMap-style scan semantics (loss, retries, blocklist, DNS observations).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "scanner/cyclic.hpp"
#include "scanner/zmap6.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

TEST(Cyclic, Primality) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_TRUE(is_prime_u64(104729));
  EXPECT_TRUE(is_prime_u64(2305843009213693951ULL));  // Mersenne prime
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(104730));
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
  EXPECT_EQ(next_prime_above(10), 11);
  EXPECT_EQ(next_prime_above(13), 17);
}

TEST(Cyclic, ModularArithmetic) {
  EXPECT_EQ(mulmod_u64(~0ULL, ~0ULL, 1000000007ULL),
            static_cast<std::uint64_t>(
                static_cast<unsigned __int128>(~0ULL) * ~0ULL % 1000000007ULL));
  EXPECT_EQ(powmod_u64(2, 10, 1000), 24);
  EXPECT_EQ(powmod_u64(7, 0, 13), 1);
}

// Property: the permutation visits every index exactly once, for a sweep
// of sizes including primes, powers of two, and tiny lists.
class CyclicCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CyclicCoverage, FullCycleNoRepeats) {
  const std::uint64_t n = GetParam();
  CyclicPermutation perm(n, 0xfeed + n);
  std::vector<bool> seen(n, false);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t v = perm.next();
    ASSERT_LT(v, n);
    ASSERT_FALSE(seen[v]) << "repeat at step " << i;
    seen[v] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CyclicCoverage,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 101, 256,
                                           1000, 4096, 10007, 65536));

TEST(Cyclic, ResetReproducesSequence) {
  CyclicPermutation perm(1000, 9);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 50; ++i) first.push_back(perm.next());
  perm.reset();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(perm.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Cyclic, AtMatchesNext) {
  CyclicPermutation perm(500, 31);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(perm.at(i), perm.next());
}

TEST(Cyclic, SeedsChangeOrder) {
  CyclicPermutation a(1000, 1);
  CyclicPermutation b(1000, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 10);
}

TEST(Cyclic, ShardsPartitionTheSpace) {
  const std::uint64_t n = 1000;
  CyclicPermutation perm(n, 5);
  const std::uint32_t shards = 4;
  std::set<std::uint64_t> all;
  std::uint64_t covered = 0;
  std::uint64_t expected_begin = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto arc = perm.shard_arc(s, shards);
    EXPECT_EQ(arc.begin, expected_begin);  // arcs tile the cycle contiguously
    expected_begin = arc.end;
    covered += arc.end - arc.begin;
    std::uint64_t cur = perm.cycle_element(arc.begin);
    for (std::uint64_t j = arc.begin; j < arc.end;
         ++j, cur = perm.cycle_advance(cur)) {
      const std::uint64_t v = perm.cycle_value(cur);
      if (v >= n) continue;  // cycle position past the list — skipped
      EXPECT_TRUE(all.insert(v).second) << "duplicate index " << v;
    }
  }
  EXPECT_EQ(covered, perm.cycle_length());
  EXPECT_EQ(all.size(), n);
}

TEST(Cyclic, ShardArcsConcatenateToSequentialOrder) {
  const std::uint64_t n = 500;
  CyclicPermutation perm(n, 77);
  std::vector<std::uint64_t> sequential;
  for (std::uint64_t i = 0; i < n; ++i) sequential.push_back(perm.next());
  for (std::uint32_t shards : {1u, 2u, 3u, 7u}) {
    std::vector<std::uint64_t> concat;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto arc = perm.shard_arc(s, shards);
      std::uint64_t cur = perm.cycle_element(arc.begin);
      for (std::uint64_t j = arc.begin; j < arc.end;
           ++j, cur = perm.cycle_advance(cur)) {
        const std::uint64_t v = perm.cycle_value(cur);
        if (v < n) concat.push_back(v);
      }
    }
    EXPECT_EQ(concat, sequential) << "shards=" << shards;
  }
}

class ScannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = build_test_world(11).release(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static const World* world_;
};

const World* ScannerTest::world_ = nullptr;

std::vector<Ipv6> responsive_sample(const World& w, std::size_t want) {
  // Collect some ground-truth responsive addresses via enumeration.
  std::vector<KnownAddress> known;
  w.enumerate_known(ScanDate{0}, known);
  std::vector<Ipv6> out;
  for (const auto& k : known) {
    auto h = w.truth_host(k.addr, ScanDate{0});
    if (h && mask_has(h->responsive, Proto::Icmp)) out.push_back(k.addr);
    if (out.size() == want) break;
  }
  return out;
}

TEST_F(ScannerTest, FindsResponsiveTargets) {
  const auto targets = responsive_sample(*world_, 50);
  ASSERT_GE(targets.size(), 10u);
  Zmap6 zmap(Zmap6::Config{.seed = 3, .loss = 0.0, .retries = 0});
  const auto result = zmap.scan(*world_, targets, Proto::Icmp, ScanDate{0});
  EXPECT_EQ(result.responsive.size(), targets.size());
  EXPECT_EQ(result.probes_sent, targets.size());
  EXPECT_EQ(result.blocked, 0u);
}

TEST_F(ScannerTest, UnroutedAddressesDoNotRespond) {
  std::vector<Ipv6> targets;
  for (int i = 0; i < 100; ++i)
    targets.push_back(ip("3fff::1").plus(static_cast<std::uint64_t>(i)));
  Zmap6 zmap(Zmap6::Config{.seed = 3, .loss = 0.0});
  for (Proto p : kAllProtos) {
    const auto result = zmap.scan(*world_, targets, p, ScanDate{0});
    EXPECT_TRUE(result.responsive.empty()) << proto_name(p);
  }
}

TEST_F(ScannerTest, LossIsRecoveredByRetries) {
  const auto targets = responsive_sample(*world_, 200);
  ASSERT_GE(targets.size(), 50u);
  Zmap6 lossy(Zmap6::Config{.seed = 3, .loss = 0.30, .retries = 0});
  Zmap6 retrying(Zmap6::Config{.seed = 3, .loss = 0.30, .retries = 3});
  const auto lost = lossy.scan(*world_, targets, Proto::Icmp, ScanDate{0});
  const auto saved = retrying.scan(*world_, targets, Proto::Icmp, ScanDate{0});
  EXPECT_LT(lost.responsive.size(), targets.size());
  EXPECT_GT(saved.responsive.size(), lost.responsive.size());
  // 30 % loss ^ 4 attempts < 1 % residual.
  EXPECT_GE(saved.responsive.size(), targets.size() * 95 / 100);
}

TEST_F(ScannerTest, BlocklistSuppressesProbes) {
  const auto targets = responsive_sample(*world_, 50);
  ASSERT_FALSE(targets.empty());
  const PrefixSet blocklist({Prefix::make(targets[0], 48)});
  Zmap6::Config cfg{.seed = 3, .loss = 0.0};
  cfg.blocklist = &blocklist;
  Zmap6 zmap(cfg);
  const auto result = zmap.scan(*world_, targets, Proto::Icmp, ScanDate{0});
  EXPECT_GT(result.blocked, 0u);
  for (const auto& rec : result.responsive)
    EXPECT_FALSE(blocklist.covers(rec.target));
}

TEST_F(ScannerTest, TcpScanCapturesFingerprintFeatures) {
  const auto targets = responsive_sample(*world_, 400);
  Zmap6 zmap(Zmap6::Config{.seed = 3, .loss = 0.0});
  const auto result = zmap.scan(*world_, targets, Proto::Tcp80, ScanDate{0});
  ASSERT_FALSE(result.responsive.empty());
  for (const auto& rec : result.responsive) {
    ASSERT_TRUE(rec.tcp.has_value());
    EXPECT_FALSE(rec.tcp->options_text.empty());
    EXPECT_GT(rec.tcp->mss, 0);
  }
}

TEST_F(ScannerTest, DnsObservationSummarizesResponses) {
  DnsQuestion q{"www.google.com", RrType::AAAA};
  // Clean AAAA.
  std::vector<DnsMessage> clean;
  DnsMessage m;
  m.response = true;
  m.answers.push_back(make_aaaa(q.qname, ip("2a00:1450::1")));
  clean.push_back(m);
  auto obs = observe_dns(clean, q);
  EXPECT_EQ(obs.response_count, 1);
  EXPECT_TRUE(obs.clean_aaaa);
  EXPECT_FALSE(obs.teredo_aaaa);
  EXPECT_FALSE(obs.a_answer_to_aaaa);

  // A record answering the AAAA question (GFW 2019/2020 pattern).
  std::vector<DnsMessage> a_injected;
  DnsMessage ma;
  ma.response = true;
  ma.answers.push_back(make_a(q.qname, Ipv4{0x9DF00001}));
  a_injected.push_back(ma);
  a_injected.push_back(ma);
  obs = observe_dns(a_injected, q);
  EXPECT_EQ(obs.response_count, 2);
  EXPECT_TRUE(obs.a_answer_to_aaaa);
  ASSERT_EQ(obs.embedded_v4.size(), 2u);
  EXPECT_EQ(obs.embedded_v4[0].value, 0x9DF00001u);

  // Teredo AAAA (GFW 2021+ pattern).
  std::vector<DnsMessage> teredo;
  DnsMessage mt;
  mt.response = true;
  mt.answers.push_back(
      make_aaaa(q.qname, make_teredo(Ipv4{0x0D6B0001}, Ipv4{0xA27D0202})));
  teredo.push_back(mt);
  obs = observe_dns(teredo, q);
  EXPECT_TRUE(obs.teredo_aaaa);
  EXPECT_FALSE(obs.clean_aaaa);
  ASSERT_EQ(obs.embedded_v4.size(), 1u);
  EXPECT_EQ(obs.embedded_v4[0].value, 0xA27D0202u);
}

TEST_F(ScannerTest, ScanIsDeterministic) {
  const auto targets = responsive_sample(*world_, 100);
  Zmap6 zmap(Zmap6::Config{.seed = 3, .loss = 0.05, .retries = 1});
  const auto a = zmap.scan(*world_, targets, Proto::Icmp, ScanDate{4});
  const auto b = zmap.scan(*world_, targets, Proto::Icmp, ScanDate{4});
  ASSERT_EQ(a.responsive.size(), b.responsive.size());
  for (std::size_t i = 0; i < a.responsive.size(); ++i)
    EXPECT_EQ(a.responsive[i].target, b.responsive[i].target);
}

}  // namespace
}  // namespace sixdust
