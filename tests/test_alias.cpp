// Tests for the alias module: candidate construction rules, multi-level
// detection against ground truth, history merging under loss, TCP
// fingerprint uniformity, and the Too Big Trick.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <string>
#include <unordered_set>

#include "alias/apd.hpp"
#include "alias/tbt.hpp"
#include "alias/tcp_fp.hpp"
#include "hitlist/service.hpp"
#include "netbase/hash.hpp"
#include "topo/aliased_region.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

class AliasTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = build_test_world(41).release(); }
  static void TearDownTestSuite() { delete world_; }

  /// Ground-truth aliased units at `d` over all deployments.
  static std::vector<Prefix> truth_units(ScanDate d) {
    std::vector<Prefix> units;
    for (const auto& dep : world_->deployments()) {
      const auto* region = dynamic_cast<const AliasedRegion*>(dep.get());
      if (region == nullptr) continue;
      for (const auto& u : region->truth_aliased_units(d)) units.push_back(u);
    }
    return units;
  }

  static const World* world_;
};

const World* AliasTest::world_ = nullptr;

TEST_F(AliasTest, CandidateRules) {
  AliasDetector::Config cfg;
  cfg.long_prefix_min_addrs = 4;

  std::vector<Ipv6> input;
  // One address in a /64 -> /64 candidate only.
  input.push_back(ip("2001:db8:1:2::1"));
  // Five addresses inside one /72 -> /68 and /72 (and deeper) candidates.
  for (int i = 0; i < 5; ++i)
    input.push_back(ip("2001:db8:7:7:1100::").plus(static_cast<std::uint64_t>(i)));

  const auto cands =
      AliasDetector::candidates(world_->rib(), input, cfg);
  auto has = [&](const char* p) {
    return std::find(cands.begin(), cands.end(), pfx(p)) != cands.end();
  };
  EXPECT_TRUE(has("2001:db8:1:2::/64"));
  EXPECT_TRUE(has("2001:db8:7:7::/64"));
  EXPECT_TRUE(has("2001:db8:7:7:1100::/72"));
  EXPECT_FALSE(has("2001:db8:1:2::/68"));  // below the threshold
  // BGP prefixes are candidates too.
  std::size_t bgp_cands = 0;
  for (const auto& r : world_->rib().routes())
    if (std::find(cands.begin(), cands.end(), r.prefix) != cands.end())
      ++bgp_cands;
  EXPECT_EQ(bgp_cands, world_->rib().prefix_count());
}

/// Reference candidate construction: count every distinct address once
/// per prefix in a map, then apply rules (a)-(c) directly.
std::vector<Prefix> reference_candidates(const Rib& rib,
                                         std::vector<Ipv6> input,
                                         const AliasDetector::Config& cfg) {
  std::sort(input.begin(), input.end());
  input.erase(std::unique(input.begin(), input.end()), input.end());
  std::map<Prefix, std::size_t> counts;
  std::vector<Prefix> out;
  for (const auto& a : input) {
    out.push_back(Prefix::make(a, 64));
    for (int len = 68; len <= cfg.max_len; len += 4)
      ++counts[Prefix::make(a, len)];
  }
  for (const auto& [p, c] : counts)
    if (c >= cfg.long_prefix_min_addrs) out.push_back(p);
  for (const auto& r : rib.routes()) out.push_back(r.prefix);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> strs(const std::vector<Prefix>& prefixes) {
  std::vector<std::string> out;
  for (const auto& p : prefixes) out.push_back(p.str());
  return out;
}

TEST_F(AliasTest, CandidatesMatchReferenceOnDenseInputs) {
  const AliasDetector::Config cfg;  // 100-address threshold, up to /120
  const auto has = [](const std::vector<Prefix>& cands, const char* p) {
    return std::binary_search(cands.begin(), cands.end(), pfx(p));
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<Ipv6> input;
    // 99 vs 100 distinct addresses under one /120: one short of the
    // threshold at every level, and exactly at it.
    for (std::uint64_t i = 0; i < 99; ++i)
      input.push_back(ip("2001:db8:a:1::1200").plus(i));
    for (std::uint64_t i = 0; i < 100; ++i)
      input.push_back(ip("2001:db8:a:2::3400").plus(i));
    // 60 distinct addresses, each listed twice: still below the threshold.
    for (int rep = 0; rep < 2; ++rep)
      for (std::uint64_t i = 0; i < 60; ++i)
        input.push_back(ip("2001:db8:a:3::").plus(i));
    // Nested clusters: random sizes at random depths inside dense /64s.
    // Narrow clusters repeat addresses, which must count once.
    for (std::uint64_t k = 0; k < 12; ++k) {
      const std::uint64_t h = hash_combine(seed, k);
      const std::uint64_t hi = ip("2001:db8:b::").hi() | (h % 4);
      const int len = 72 + 4 * static_cast<int>((h >> 8) % 12);
      const std::uint64_t base = mix64(h) & ~(~std::uint64_t{0} >> (len - 64));
      const std::uint64_t n = 50 + (h >> 16) % 350;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t low = mix64(hash_combine(h, i)) >> (len - 64);
        input.push_back(Ipv6::from_words(hi, base | low));
      }
    }
    // Sparse one-address /64s.
    for (std::uint64_t i = 0; i < 300; ++i)
      input.push_back(pfx("2600:3c00::/32").random_address(seed * 1000 + i));

    const auto cands = AliasDetector::candidates(world_->rib(), input, cfg);
    const auto expected = reference_candidates(world_->rib(), input, cfg);
    EXPECT_EQ(strs(cands), strs(expected)) << "seed " << seed;
    EXPECT_TRUE(std::adjacent_find(cands.begin(), cands.end(),
                                   [](const Prefix& a, const Prefix& b) {
                                     return !(a < b);
                                   }) == cands.end())
        << "not sorted and unique";
    EXPECT_TRUE(has(cands, "2001:db8:a:1::/64"));
    EXPECT_FALSE(has(cands, "2001:db8:a:1::/68"));
    EXPECT_FALSE(has(cands, "2001:db8:a:1::1200/120"));
    EXPECT_TRUE(has(cands, "2001:db8:a:2::/68"));
    EXPECT_TRUE(has(cands, "2001:db8:a:2::3400/120"));
    EXPECT_FALSE(has(cands, "2001:db8:a:3::/68"));
  }
}

TEST(AliasCandidates, MatchReferenceOnSortedAndShuffledInput) {
  AliasDetector::Config cfg;
  cfg.long_prefix_min_addrs = 20;
  std::vector<Ipv6> input;
  // A dense /64 whose rule-(c) prefixes span several lengths with
  // different bases: 40 consecutive addresses qualify down to /120, and
  // 25 addresses one /80 apart share only the /68.. /76 prefixes of the
  // upper half. Length-major emission would put the upper half's /68
  // before the lower half's /72, so this checks the per-/64 ordering.
  for (std::uint64_t i = 0; i < 40; ++i)
    input.push_back(ip("2001:db8:b:1::1000").plus(i));
  for (std::uint64_t i = 0; i < 25; ++i)
    input.push_back(Ipv6::from_words(ip("2001:db8:b:1::").hi(),
                                     0x8000'0000'0000'0000ULL + (i << 48)));
  // 30 addresses under one /120 of a second /64, and single addresses.
  for (std::uint64_t i = 0; i < 30; ++i)
    input.push_back(ip("2001:db8:a:2::3400").plus(i));
  input.push_back(ip("2001:db8:a:3::1"));
  input.push_back(ip("2001:db8:c::7"));
  input.push_back(ip("2001:db8:a:3::1"));  // a repeat counts once

  // The RIB announces a rule-(b) /64, a rule-(c) /120 and one prefix
  // twice (with different origins), next to covering and disjoint ones.
  const Rib rib({{pfx("2001:db8::/32"), 1},
                 {pfx("2001:db8:a:2::/64"), 2},
                 {pfx("2001:db8:a:2::3400/120"), 3},
                 {pfx("2001:db8:b::/48"), 4},
                 {pfx("2001:db8:b::/48"), 5},
                 {pfx("2001:db8:ffff::/48"), 6}});
  ASSERT_EQ(rib.prefixes().size(), 5u);

  const auto expected = reference_candidates(rib, input, cfg);
  const auto has = [&](const char* p) {
    return std::binary_search(expected.begin(), expected.end(), pfx(p));
  };
  // The edge cases are really in play.
  ASSERT_TRUE(has("2001:db8:a:2::3400/120"));
  ASSERT_TRUE(has("2001:db8:b:1::1000/120"));
  ASSERT_TRUE(has("2001:db8:b:1:8000::/68"));
  ASSERT_TRUE(has("2001:db8:b:1::/68"));
  ASSERT_FALSE(has("2001:db8:b:1:8000::/80"));

  std::vector<Ipv6> sorted = input;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(strs(AliasDetector::candidates(rib, sorted, cfg)), strs(expected));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<Ipv6> shuffled = input;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1],
                shuffled[hash_combine(seed, i) % static_cast<std::uint64_t>(i)]);
    EXPECT_EQ(strs(AliasDetector::candidates(rib, shuffled, cfg)),
              strs(expected))
        << "seed " << seed;
  }
  // Only RIB prefixes when there is no input.
  EXPECT_EQ(AliasDetector::candidates(rib, {}, cfg), rib.prefixes());
}

TEST_F(AliasTest, DetectsTruthAliasedUnitsWithInputPresence) {
  const ScanDate d{45};
  const auto units = truth_units(d);
  ASSERT_FALSE(units.empty());

  // Input: one address per truth unit plus unaliased noise.
  std::vector<Ipv6> input;
  for (const auto& u : units) input.push_back(u.random_address(0xAB));
  for (std::uint64_t i = 0; i < 200; ++i)
    input.push_back(pfx("2600:3c00::/32").random_address(i));  // Linode noise

  AliasDetector det(AliasDetector::Config{.seed = 1, .loss = 0.0});
  const auto detection = det.detect(*world_, input, d);

  // Every truth unit must be covered by a detected aliased prefix.
  for (const auto& u : units)
    EXPECT_TRUE(detection.aliased_set.covers(u.random_address(0xCD)))
        << u.str();
  // No random Linode noise address may be covered.
  for (std::uint64_t i = 0; i < 200; ++i)
    EXPECT_FALSE(
        detection.aliased_set.covers(pfx("2600:3c00::/32").random_address(i)));
}

TEST_F(AliasTest, ShorterAliasedPrefixSubsumesContainedCandidates) {
  const ScanDate d{45};
  // EpicUp's /28s are whole-prefix aliased and BGP-announced: a /64 inside
  // must not be reported separately.
  std::vector<Ipv6> input;
  Ipv6 base = ip("2602:f000::");
  base.set_nibble(6, 0);
  const Prefix epicup = Prefix::make(base, 28);
  for (int i = 0; i < 5; ++i)
    input.push_back(epicup.random_address(static_cast<std::uint64_t>(i)));

  AliasDetector det(AliasDetector::Config{.seed = 1, .loss = 0.0});
  const auto detection = det.detect(*world_, input, d);
  bool found28 = false;
  for (const auto& p : detection.aliased) {
    if (p == epicup) found28 = true;
    if (epicup.contains(p)) {
      EXPECT_EQ(p.len(), 28) << p.str();
    }
  }
  EXPECT_TRUE(found28);

  // Published in (len, base) order, and no member contains another.
  const auto& aliased = detection.aliased;
  for (std::size_t i = 1; i < aliased.size(); ++i) {
    const Prefix& a = aliased[i - 1];
    const Prefix& b = aliased[i];
    EXPECT_TRUE(a.len() < b.len() || (a.len() == b.len() && a < b))
        << a.str() << " before " << b.str();
  }
  for (const auto& a : aliased) {
    for (const auto& b : aliased) {
      if (a != b) {
        EXPECT_FALSE(a.contains(b)) << a.str() << " " << b.str();
      }
    }
  }
  auto sorted = aliased;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(detection.aliased_set.prefixes(), sorted);
}

TEST_F(AliasTest, HistoryMergingRecoversLoss) {
  const ScanDate d{45};
  const auto units = truth_units(d);
  std::vector<Ipv6> input;
  for (const auto& u : units) input.push_back(u.random_address(0xEF));

  // Single lossy round: some units are missed.
  AliasDetector lossy_once(AliasDetector::Config{.seed = 2, .loss = 0.25});
  const auto once = lossy_once.detect(*world_, input, d);

  // With history over several rounds, detection converges to complete.
  AliasDetector lossy_hist(AliasDetector::Config{.seed = 2, .loss = 0.25});
  AliasDetector::Detection last;
  for (int round = 0; round < 3; ++round)
    last = lossy_hist.detect(*world_, input, ScanDate{43 + round});

  std::size_t missed_once = 0;
  std::size_t missed_hist = 0;
  for (const auto& u : units) {
    if (!once.aliased_set.covers(u.random_address(1))) ++missed_once;
    if (!last.aliased_set.covers(u.random_address(1))) ++missed_hist;
  }
  EXPECT_GT(missed_once, 0u);  // 25 % loss definitely breaks single rounds
  EXPECT_LT(missed_hist, missed_once);
  EXPECT_LE(missed_hist, units.size() / 50);
}

TEST_F(AliasTest, HistoryMergesPrefixesMissingFromAnInterimRound) {
  // Sparse /64 units are candidates only while the input holds an address
  // in them. Drop half of them from round 2: round 3 must still merge
  // their round-1 masks, as if round 2 had never run.
  std::vector<Ipv6> all;
  std::vector<Ipv6> kept;
  std::vector<Prefix> dropped;
  for (const auto& dep : world_->deployments()) {
    const auto* region = dynamic_cast<const AliasedRegion*>(dep.get());
    if (region == nullptr || region->config().sparse64_count == 0) continue;
    for (const auto& u : region->truth_aliased_units(ScanDate{43})) {
      const Ipv6 a = u.random_address(0x5EED);
      all.push_back(a);
      if (all.size() % 2 == 0) {
        kept.push_back(a);
      } else {
        dropped.push_back(u);
      }
    }
  }
  ASSERT_GT(dropped.size(), 20u);

  const AliasDetector::Config cfg{.seed = 4, .loss = 0.25};
  AliasDetector gap(cfg);
  (void)gap.detect(*world_, all, ScanDate{43});
  (void)gap.detect(*world_, kept, ScanDate{44});
  const auto merged = gap.detect(*world_, all, ScanDate{45});

  AliasDetector two_rounds(cfg);
  (void)two_rounds.detect(*world_, all, ScanDate{43});
  const auto expected = two_rounds.detect(*world_, all, ScanDate{45});

  const auto single = AliasDetector(cfg).detect(*world_, all, ScanDate{45});

  const auto found = [](const AliasDetector::Detection& det, const Prefix& u) {
    return std::find(det.aliased.begin(), det.aliased.end(), u) !=
           det.aliased.end();
  };
  std::size_t found_merged = 0;
  std::size_t found_single = 0;
  for (const auto& u : dropped) {
    EXPECT_EQ(found(merged, u), found(expected, u)) << u.str();
    found_merged += found(merged, u) ? 1 : 0;
    found_single += found(single, u) ? 1 : 0;
  }
  EXPECT_GT(found_merged, found_single);  // round 1 filled in lost probes
}

// --- the probe round against a naive reference ------------------------------

/// The probe round as it read before candidates resolved their deployment
/// once: one World::answers per sub-target, a loss draw before every
/// answer check, and one sequential pass.
struct NaiveProbeRound {
  const AliasDetector::Config& cfg;

  [[nodiscard]] bool lost(const Ipv6& a, ScanDate d, int proto_tag) const {
    if (cfg.loss <= 0) return false;
    const std::uint64_t h =
        hash_combine(hash_of(a, cfg.seed ^ 0xA1D),
                     (static_cast<std::uint64_t>(d.index) << 8) |
                         static_cast<std::uint64_t>(proto_tag));
    return unit_from_hash(h) < cfg.loss;
  }

  std::uint16_t mask(const World& world, const Prefix& p, ScanDate date,
                     std::uint64_t* probes) const {
    std::uint16_t m = 0;
    for (unsigned i = 0; i < 16; ++i) {
      const Ipv6 target = p.subprefix(i, 4).random_address(
          hash_combine(cfg.seed, static_cast<std::uint64_t>(date.index)));
      const ProtoMask answers = world.answers(target, date);
      bool responded = false;
      for (int attempt = 0; attempt < 2 && !responded; ++attempt) {
        ++*probes;
        if (!lost(target, date, attempt * 2) && mask_has(answers, Proto::Icmp))
          responded = true;
      }
      if (!responded) {
        ++*probes;
        if (!lost(target, date, 1) && mask_has(answers, Proto::Tcp80))
          responded = true;
      }
      if (responded) m |= static_cast<std::uint16_t>(1u << i);
      if (i == 1 && m == 0) return m;
    }
    return m;
  }
};

/// Candidates that a deployment boundary cuts through or just misses:
/// every BGP prefix holding a more-specific deployment prefix, the /len-4
/// parent of each deployment prefix (the deployment is one of its 16
/// sub-prefixes), and each deployment prefix's same-length neighbours,
/// the one below ending exactly one address before the boundary.
std::vector<Prefix> boundary_candidates(const World& world,
                                        std::size_t* straddling_bgp) {
  std::vector<Prefix> deps;
  for (const auto& d : world.deployments())
    deps.insert(deps.end(), d->prefixes().begin(), d->prefixes().end());
  std::sort(deps.begin(), deps.end());
  std::vector<Prefix> out;
  *straddling_bgp = 0;
  for (const Prefix& bgp : world.rib().prefixes()) {
    // The first deployment prefix after `bgp` in (base, len) order is
    // inside it if any more-specific one is.
    const auto it = std::upper_bound(deps.begin(), deps.end(), bgp);
    if (it == deps.end() || !bgp.contains(*it)) continue;
    out.push_back(bgp);
    ++*straddling_bgp;
  }
  const Ipv6 max = Ipv6::from_words(~0ULL, ~0ULL);
  for (const Prefix& q : deps) {
    if (q.len() < 4 || q.len() > 124) continue;
    out.push_back(Prefix::make(q.base(), q.len() - 4));
    const Ipv6 b = q.base();
    if (b != Ipv6{})
      out.push_back(Prefix::make(
          Ipv6::from_words(b.lo() == 0 ? b.hi() - 1 : b.hi(), b.lo() - 1),
          q.len()));
    if (q.last() != max) out.push_back(Prefix::make(q.last().plus(1), q.len()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Compare one round at threads 1/2/7 against the naive reference.
void expect_round_matches_naive(const World& world,
                                std::span<const Prefix> cands, ScanDate d,
                                const AliasDetector::Config& base,
                                std::uint64_t* responsive_bits) {
  const NaiveProbeRound naive{base};
  std::vector<std::uint16_t> want(cands.size());
  std::uint64_t want_probes = 0;
  for (std::size_t i = 0; i < cands.size(); ++i)
    want[i] = naive.mask(world, cands[i], d, &want_probes);
  for (const std::uint16_t m : want)
    *responsive_bits += static_cast<std::uint64_t>(std::popcount(m));
  for (unsigned threads : {1u, 2u, 7u}) {
    AliasDetector::Config cfg = base;
    cfg.threads = threads;
    const AliasDetector det(cfg);
    std::uint64_t probes = 0;
    const auto got = det.probe_round(world, cands, d, &probes);
    EXPECT_EQ(probes, want_probes) << "scan " << d.index << " threads "
                                   << threads;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < cands.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << cands[i].str() << " scan " << d.index
                                 << " threads " << threads;
  }
}

TEST(ApdProbeRound, MatchesNaiveReference) {
  // The service's candidates on every scan of a 46-scan test-world run,
  // rebuilt from public state before each step as the step builds them.
  const auto world = build_test_world(46);
  HitlistService svc(HitlistService::Config{});
  const SourceCollector sources(svc.config().sources);
  const AliasDetector::Config cfg = svc.config().apd;
  std::uint64_t responsive_bits = 0;
  for (int i = 0; i < 46; ++i) {
    const ScanDate d{i};
    std::vector<Ipv6> input = svc.eligible_targets();
    std::unordered_set<Ipv6, Ipv6Hasher> seen;
    for (const auto& k : sources.collect(*world, d))
      if (!svc.input().contains(k.addr) && seen.insert(k.addr).second &&
          !svc.blocklist().covers(k.addr))
        input.push_back(k.addr);
    const auto cands = AliasDetector::candidates(world->rib(), input, cfg);
    expect_round_matches_naive(*world, cands, d, cfg, &responsive_bits);
    if (::testing::Test::HasFatalFailure()) return;
    (void)svc.step(*world, d);
  }
  EXPECT_GT(responsive_bits, 0u);

  // Candidates around deployment boundaries, under the default loss and a
  // heavy one that draws against many more probes.
  std::size_t straddling_bgp = 0;
  const auto fixtures = boundary_candidates(*world, &straddling_bgp);
  ASSERT_GT(straddling_bgp, 0u);
  std::uint64_t fixture_bits = 0;
  for (double loss : {0.01, 0.3}) {
    AliasDetector::Config lossy = cfg;
    lossy.loss = loss;
    for (int i : {0, 23, 45}) {
      expect_round_matches_naive(*world, fixtures, ScanDate{i}, lossy,
                                 &fixture_bits);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(fixture_bits, 0u);
}

TEST_F(AliasTest, TcpFingerprintsUniformWithinAliasedPrefixes) {
  const ScanDate d{45};
  std::vector<Prefix> aliased;
  std::vector<Prefix> multi;
  for (const auto& dep : world_->deployments()) {
    const auto* region = dynamic_cast<const AliasedRegion*>(dep.get());
    if (region == nullptr) continue;
    if (!mask_has(region->config().protos, Proto::Tcp80)) continue;
    for (const auto& u : region->truth_aliased_units(d)) {
      (region->config().mode == AliasMode::MultiHost ? multi : aliased)
          .push_back(u);
    }
  }
  ASSERT_FALSE(aliased.empty());

  TcpFingerprinter fper(TcpFingerprinter::Config{});
  const auto uniform_sum = fper.run(*world_, aliased, d);
  EXPECT_EQ(uniform_sum.fingerprintable, aliased.size());
  EXPECT_EQ(uniform_sum.uniform, uniform_sum.fingerprintable);

  if (!multi.empty()) {
    const auto multi_sum = fper.run(*world_, multi, d);
    EXPECT_EQ(multi_sum.window_differs, multi_sum.fingerprintable);
    EXPECT_EQ(multi_sum.uniform, 0u);
  }
}

TEST_F(AliasTest, TbtDistinguishesHostOrganization) {
  const ScanDate d{45};
  world_->reset_pmtu();
  TooBigTrick tbt(TooBigTrick::Config{});

  for (const auto& dep : world_->deployments()) {
    const auto* region = dynamic_cast<const AliasedRegion*>(dep.get());
    if (region == nullptr) continue;
    const auto& rc = region->config();
    auto units = region->truth_aliased_units(d);
    if (units.empty()) continue;
    if (units.size() > 10) units.resize(10);
    std::size_t all = 0;
    std::size_t none = 0;
    std::size_t partial = 0;
    std::size_t unusable = 0;
    for (const auto& u : units) {
      switch (tbt.test(*world_, u, d).outcome) {
        case TooBigTrick::Outcome::AllShared: ++all; break;
        case TooBigTrick::Outcome::NoneShared: ++none; break;
        case TooBigTrick::Outcome::PartialShared: ++partial; break;
        case TooBigTrick::Outcome::NotUsable: ++unusable; break;
      }
    }
    const auto label = world_->registry().label(rc.asn);
    if (!rc.honors_ptb) {
      EXPECT_EQ(unusable, units.size()) << label;
      continue;
    }
    switch (rc.mode) {
      case AliasMode::SingleHost:
        EXPECT_EQ(all, units.size()) << label;
        break;
      case AliasMode::LoadBalanced:
        // Eight probed addresses hash onto k machines: mostly partial
        // PMTU-cache sharing, occasionally none (all seven follow-ups in
        // other partitions) — never a full share for k > 1.
        EXPECT_EQ(all, 0u) << label;
        EXPECT_GT(partial + none, 0u) << label;
        if (units.size() >= 5) {
          EXPECT_GT(partial, 0u) << label;
        }
        break;
      case AliasMode::MultiHost:
        EXPECT_EQ(none, units.size()) << label;
        break;
    }
  }
}

TEST_F(AliasTest, TbtNotUsableOnUnresponsiveSpace) {
  world_->reset_pmtu();
  TooBigTrick tbt(TooBigTrick::Config{});
  const auto res = tbt.test(*world_, pfx("2600:3c00:77::/64"), ScanDate{45});
  EXPECT_EQ(res.outcome, TooBigTrick::Outcome::NotUsable);
}

}  // namespace
}  // namespace sixdust
