// Tests for the Entropy/IP-style generator: entropy computation,
// segmentation, segment classification, and generation quality on a
// structured plan.

#include <gtest/gtest.h>

#include <array>
#include <unordered_set>

#include "netbase/hash.hpp"
#include "netbase/prefix.hpp"
#include "tga/entropyip.hpp"

namespace sixdust {
namespace {

/// Plan: fixed /32 prefix | subnet counter (2 nibbles, 0..63) | zeros |
/// IID dictionary {1, 2}.
std::vector<Ipv6> plan_seeds(double known = 0.7) {
  std::vector<Ipv6> seeds;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint64_t iid = 1; iid <= 2; ++iid) {
      if (unit_from_hash(hash_combine(3, (s << 4) | iid)) > known) continue;
      Ipv6 a = ip("2001:db8::");
      a.set_nibble(8, s >> 4);
      a.set_nibble(9, s & 0xf);
      seeds.push_back(Ipv6::from_words(a.hi(), iid));
    }
  }
  return seeds;
}

TEST(EntropyIp, NibbleEntropyReflectsStructure) {
  const auto seeds = plan_seeds();
  const auto h = EntropyIp::nibble_entropy(seeds);
  // Fixed prefix nibbles: zero entropy.
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(h[static_cast<std::size_t>(i)], 0.0) << i;
  // Counter nibbles: high entropy (close to 2 and 4 bits).
  EXPECT_GT(h[8], 1.5);
  EXPECT_GT(h[9], 3.0);
  // Zero middle: zero entropy.
  for (int i = 10; i < 31; ++i)
    EXPECT_DOUBLE_EQ(h[static_cast<std::size_t>(i)], 0.0) << i;
  // IID dictionary {1,2}: about one bit.
  EXPECT_GT(h[31], 0.8);
  EXPECT_LT(h[31], 1.2);
}

TEST(EntropyIp, EmptySeedsAreHandled) {
  EXPECT_TRUE(EntropyIp{{}}.generate({}, 100).empty());
  const auto h = EntropyIp::nibble_entropy({});
  for (double v : h) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EntropyIp, SegmentationSplitsAtEntropyEdges) {
  const auto seeds = plan_seeds();
  EntropyIp eip{EntropyIp::Config{}};
  const auto segments = eip.segment(seeds);
  ASSERT_GE(segments.size(), 3u);
  // Segments tile the address exactly.
  int pos = 0;
  for (const auto& s : segments) {
    EXPECT_EQ(s.begin, pos);
    EXPECT_LT(s.begin, s.end);
    pos = s.end;
  }
  EXPECT_EQ(pos, 32);
  // The first segment is the constant prefix.
  EXPECT_EQ(segments.front().kind, EntropyIp::Segment::Kind::Constant);
  EXPECT_EQ(segments.front().begin, 0);
}

TEST(EntropyIp, GeneratesInsideTheLearnedStructure) {
  const auto seeds = plan_seeds();
  EntropyIp eip{EntropyIp::Config{}};
  const auto out = eip.generate(seeds, 2000);
  ASSERT_FALSE(out.empty());
  std::size_t in_plan = 0;
  for (const auto& a : out) {
    EXPECT_TRUE(pfx("2001:db8::/32").contains(a)) << a.str();
    const unsigned subnet = a.nibble(8) << 4 | a.nibble(9);
    if (subnet < 64 && a.lo() >= 1 && a.lo() <= 2) ++in_plan;
  }
  // The model confines generation to the learned segments, so a large
  // share lands on real plan slots.
  EXPECT_GT(static_cast<double>(in_plan) / static_cast<double>(out.size()),
            0.5);
}

TEST(EntropyIp, DiscoversUnseenPlanSlots) {
  const auto seeds = plan_seeds(0.5);
  std::unordered_set<Ipv6, Ipv6Hasher> seed_set(seeds.begin(), seeds.end());
  EntropyIp eip{EntropyIp::Config{}};
  const auto out = eip.generate(seeds, 2000);
  std::size_t unseen_hits = 0;
  for (const auto& a : out) {
    if (seed_set.contains(a)) continue;
    const unsigned subnet = a.nibble(8) << 4 | a.nibble(9);
    if (pfx("2001:db8::/32").contains(a) && subnet < 64 && a.lo() >= 1 &&
        a.lo() <= 2)
      ++unseen_hits;
  }
  EXPECT_GT(unseen_hits, 20u);
}

TEST(EntropyIp, DeterministicAndBudgeted) {
  const auto seeds = plan_seeds();
  EntropyIp eip{EntropyIp::Config{}};
  const auto a = eip.generate(seeds, 300);
  const auto b = eip.generate(seeds, 300);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 300u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(EntropyIp, RandomSegmentsAreClassified) {
  // Seeds with a fully random IID: the tail must be Kind::Random.
  std::vector<Ipv6> seeds;
  for (std::uint64_t i = 0; i < 200; ++i)
    seeds.push_back(
        Ipv6::from_words(0x20010db800000000ULL, mix64(i)));
  EntropyIp eip{EntropyIp::Config{}};
  const auto segments = eip.segment(seeds);
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.back().kind, EntropyIp::Segment::Kind::Random);
  EXPECT_GT(segments.back().mean_entropy, 3.2);
}

TEST(EntropyIp, WideRandomRunIsCutIntoSixteenNibbleSegments) {
  // Nibbles 8..31 are uniformly random: one entropy run of 24 nibbles,
  // wider than the 64-bit segment value.
  std::vector<Ipv6> seeds;
  for (std::uint64_t i = 0; i < 400; ++i)
    seeds.push_back(Ipv6::from_words(
        0x20010db800000000ULL | (mix64(i) >> 32), mix64(i ^ 0x5eed)));
  EntropyIp eip{EntropyIp::Config{}};
  const auto segments = eip.segment(seeds);
  int pos = 0;
  for (const auto& s : segments) {
    EXPECT_EQ(s.begin, pos);
    EXPECT_LE(s.end - s.begin, 16);
    pos = s.end;
  }
  EXPECT_EQ(pos, 32);

  const auto out = eip.generate(seeds, 2000);
  ASSERT_GT(out.size(), 1000u);
  const Ipv6 prefix = ip("2001:db8::");
  std::array<std::array<std::size_t, 16>, 32> seen{};
  std::array<std::size_t, 16> repeats{};  // nibble p equal to nibble p + 16
  for (const auto& a : out) {
    for (int p = 0; p < 32; ++p) {
      if (p < 8) {
        EXPECT_EQ(a.nibble(p), prefix.nibble(p)) << a.str();
      }
      ++seen[static_cast<std::size_t>(p)][a.nibble(p)];
    }
    for (int p = 8; p < 16; ++p) {
      if (a.nibble(p) == a.nibble(p + 16))
        ++repeats[static_cast<std::size_t>(p)];
    }
  }
  // Every random nibble takes (nearly) every value, and the upper nibbles
  // are drawn, not copies of the nibbles 16 positions further down.
  for (int p = 8; p < 32; ++p) {
    std::size_t values = 0;
    for (const std::size_t c : seen[static_cast<std::size_t>(p)])
      values += c > 0 ? 1 : 0;
    EXPECT_GE(values, 14u) << "nibble " << p;
  }
  for (int p = 8; p < 16; ++p)
    EXPECT_LT(repeats[static_cast<std::size_t>(p)], out.size() / 4)
        << "nibble " << p;
}

}  // namespace
}  // namespace sixdust
