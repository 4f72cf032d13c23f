// Unit + property tests for the netbase module: IPv6 parsing/formatting,
// prefixes, the LPM table, EUI-64, Teredo, hashing and RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "netbase/addr_index.hpp"
#include "netbase/eui64.hpp"
#include "netbase/frozen_lpm.hpp"
#include "netbase/hash.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "netbase/prefix_set.hpp"
#include "netbase/rng.hpp"
#include "netbase/teredo.hpp"
#include "netbase/u128.hpp"
#include "netbase/util.hpp"

namespace sixdust {
namespace {

TEST(Ipv6, ParsesFullForm) {
  auto a = Ipv6::parse("2001:0db8:85a3:0000:0000:8a2e:0370:7334");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0x20010db885a30000ULL);
  EXPECT_EQ(a->lo(), 0x00008a2e03707334ULL);
}

TEST(Ipv6, ParsesCompressedForms) {
  EXPECT_EQ(ip("::").hi(), 0u);
  EXPECT_EQ(ip("::").lo(), 0u);
  EXPECT_EQ(ip("::1").lo(), 1u);
  EXPECT_EQ(ip("fe80::").hi(), 0xfe80000000000000ULL);
  EXPECT_EQ(ip("2001:db8::1").hi(), 0x20010db800000000ULL);
  EXPECT_EQ(ip("2001:db8::1").lo(), 1u);
  EXPECT_EQ(ip("1::8").hi(), 0x0001000000000000ULL);
  EXPECT_EQ(ip("1::8").lo(), 8u);
}

TEST(Ipv6, ParsesEmbeddedIpv4Tail) {
  auto a = Ipv6::parse("::ffff:192.168.1.200");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->lo(), 0x0000ffffc0a801c8ULL);
}

TEST(Ipv6, RejectsMalformedInput) {
  EXPECT_FALSE(Ipv6::parse("").has_value());
  EXPECT_FALSE(Ipv6::parse(":").has_value());
  EXPECT_FALSE(Ipv6::parse("1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(Ipv6::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(Ipv6::parse("12345::").has_value());
  EXPECT_FALSE(Ipv6::parse("::1::2").has_value());
  EXPECT_FALSE(Ipv6::parse("g::1").has_value());
  EXPECT_FALSE(Ipv6::parse("1:2:3:4:5:6:7:").has_value());
  EXPECT_FALSE(Ipv6::parse("::256.1.1.1").has_value());
  EXPECT_FALSE(Ipv6::parse("::1.2.3").has_value());
}

TEST(Ipv6, FormatsRfc5952) {
  EXPECT_EQ(ip("2001:0db8::0001").str(), "2001:db8::1");
  EXPECT_EQ(ip("::").str(), "::");
  EXPECT_EQ(ip("::1").str(), "::1");
  EXPECT_EQ(ip("1::").str(), "1::");
  EXPECT_EQ(ip("2001:db8:0:1:1:1:1:1").str(), "2001:db8:0:1:1:1:1:1");
  // Longest zero run wins; leftmost on ties.
  EXPECT_EQ(ip("2001:0:0:1:0:0:0:1").str(), "2001:0:0:1::1");
  EXPECT_EQ(ip("2001:0:0:1:0:0:1:1").str(), "2001::1:0:0:1:1");
  // A single zero group is not compressed.
  EXPECT_EQ(ip("2001:db8:0:1:2:3:4:5").str(), "2001:db8:0:1:2:3:4:5");
}

TEST(Ipv6, RoundTripProperty) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    const Ipv6 a = Ipv6::from_words(rng.next(), rng.next());
    auto parsed = Ipv6::parse(a.str());
    ASSERT_TRUE(parsed.has_value()) << a.str();
    EXPECT_EQ(*parsed, a) << a.str();
  }
}

TEST(Ipv6, NibbleAndBitAccessors) {
  Ipv6 a;
  a.set_nibble(0, 0x2);
  a.set_nibble(1, 0xa);
  a.set_nibble(31, 0xf);
  EXPECT_EQ(a.nibble(0), 0x2u);
  EXPECT_EQ(a.nibble(1), 0xau);
  EXPECT_EQ(a.nibble(31), 0xfu);
  EXPECT_EQ(a.lo() & 0xf, 0xfu);

  Ipv6 b;
  b.set_bit(0, true);
  EXPECT_TRUE(b.bit(0));
  EXPECT_EQ(b.hi(), 0x8000000000000000ULL);
  b.set_bit(127, true);
  EXPECT_EQ(b.lo(), 1u);
  b.set_bit(0, false);
  EXPECT_EQ(b.hi(), 0u);
}

TEST(Ipv6, PlusCarriesAcrossWords) {
  const Ipv6 a = Ipv6::from_words(1, ~std::uint64_t{0});
  const Ipv6 b = a.plus(1);
  EXPECT_EQ(b.hi(), 2u);
  EXPECT_EQ(b.lo(), 0u);
}

TEST(Ipv6, Distance64) {
  EXPECT_EQ(ip("2001:db8::1").distance64(ip("2001:db8::41")), 0x40u);
  EXPECT_EQ(ip("2001:db8::1").distance64(ip("2001:db9::1")), ~std::uint64_t{0});
}

TEST(Prefix, ParseAndContainment) {
  const Prefix p = pfx("2001:db8::/32");
  EXPECT_EQ(p.len(), 32);
  EXPECT_TRUE(p.contains(ip("2001:db8:1234::1")));
  EXPECT_FALSE(p.contains(ip("2001:db9::1")));
  EXPECT_TRUE(p.contains(pfx("2001:db8:ff00::/40")));
  EXPECT_FALSE(p.contains(pfx("2001::/16")));
  EXPECT_FALSE(Prefix::parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Prefix::parse("2001:db8::").has_value());
  EXPECT_FALSE(Prefix::parse("banana/32").has_value());
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p = pfx("2001:db8:ffff:ffff::1/32");
  EXPECT_EQ(p.str(), "2001:db8::/32");
}

TEST(Prefix, SubprefixEnumeration) {
  const Prefix p = pfx("2001:db8::/32");
  std::set<std::string> seen;
  for (unsigned i = 0; i < 16; ++i) {
    const Prefix sub = p.subprefix(i, 4);
    EXPECT_EQ(sub.len(), 36);
    EXPECT_TRUE(p.contains(sub));
    seen.insert(sub.str());
  }
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_TRUE(seen.contains("2001:db8::/36"));
  EXPECT_TRUE(seen.contains("2001:db8:f000::/36"));
}

TEST(Prefix, RandomAddressStaysInsideAndSpreads) {
  const Prefix p = pfx("2a02:26f0:6c00::/48");
  std::set<Ipv6> distinct;
  for (std::uint64_t salt = 0; salt < 200; ++salt) {
    const Ipv6 a = p.random_address(salt);
    EXPECT_TRUE(p.contains(a));
    distinct.insert(a);
  }
  EXPECT_GT(distinct.size(), 190u);  // essentially no collisions
}

TEST(Prefix, SizeAccounting) {
  EXPECT_EQ(pfx("::/128").size(), u128{1});
  EXPECT_EQ(pfx("2001:db8::/64").size(), u128_pow2(64));
  EXPECT_EQ(u128_log2(pfx("2602:f000::/28").size()), 100);
}

// ------------------------------------------------------- address kernels
// The word-level kernels (bit_reverse64, Ipv6::field/with_field and the
// Prefix functions built on them) against the per-bit loops they replaced,
// kept here as references.

std::uint64_t ref_bit_reverse64(std::uint64_t x) {
  std::uint64_t r = 0;
  for (int b = 0; b < 64; ++b) r |= ((x >> b) & 1) << (63 - b);
  return r;
}

std::uint64_t ref_field(const Ipv6& a, int pos, int width) {
  std::uint64_t v = 0;
  for (int b = 0; b < width; ++b)
    v = v << 1 | static_cast<std::uint64_t>(a.bit(pos + b));
  return v;
}

Ipv6 ref_with_field(Ipv6 a, int pos, int width, std::uint64_t v) {
  for (int b = 0; b < width; ++b)
    a.set_bit(pos + b, (v >> (width - 1 - b)) & 1);
  return a;
}

Ipv6 ref_random_address(const Prefix& p, std::uint64_t salt) {
  const std::uint64_t h0 = hash_combine(hash_of(p.base(), salt), p.len());
  const std::uint64_t h1 = mix64(h0);
  Ipv6 a = p.base();
  for (int b = p.len(); b < 128; ++b) {
    const std::uint64_t h = b < 96 ? h0 : h1;
    a.set_bit(b, (h >> (b & 63)) & 1);
  }
  return a;
}

Ipv6 ref_last(const Prefix& p) {
  Ipv6 a = p.base();
  for (int i = p.len(); i < 128; ++i) a.set_bit(i, true);
  return a;
}

Prefix ref_subprefix(const Prefix& p, unsigned i, int extra) {
  Ipv6 a = p.base();
  for (int b = 0; b < extra; ++b)
    a.set_bit(p.len() + b, (i >> (extra - 1 - b)) & 1);
  return Prefix::make(a, p.len() + extra);
}

/// A pseudo-random full address; the prefixes under test are cut from it.
Ipv6 kernel_address(std::uint64_t k) {
  return Ipv6::from_words(mix64(k ^ 0xadd2), mix64(k ^ 0x5eed));
}

TEST(AddrIndex, KeysThroughTheCallersColumn) {
  AddrIndex index;
  std::vector<Ipv6> column;
  EXPECT_EQ(index.find(column, ip("2001:db8::1")), AddrIndex::kNone);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Ipv6 a = Ipv6::from_words(0x20010db800000000ULL, i);
    EXPECT_EQ(index.insert(column, a), std::make_pair(i, true));
    EXPECT_EQ(index.insert(column, a), std::make_pair(i, false));
  }
  // Only new addresses are appended, in insertion order.
  ASSERT_EQ(column.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(column[i], Ipv6::from_words(0x20010db800000000ULL, i));
    EXPECT_EQ(index.find(column, column[i]), i);
  }
  EXPECT_EQ(index.find(column, ip("2001:db8::1:0")), AddrIndex::kNone);
  // Reserving re-places the existing positions.
  index.reserve(column, 5000);
  for (std::uint32_t i = 0; i < 100; ++i)
    EXPECT_EQ(index.find(column, column[i]), i);
  EXPECT_EQ(index.insert(column, ip("2001:db8::1:0")),
            std::make_pair(std::uint32_t{100}, true));
}

TEST(AddressKernels, BitReverseMatchesPerBitLoop) {
  EXPECT_EQ(bit_reverse64(0), 0u);
  EXPECT_EQ(bit_reverse64(1), 0x8000000000000000ULL);
  EXPECT_EQ(bit_reverse64(0x8000000000000000ULL), 1u);
  static_assert(bit_reverse64(0x00000000000000F1ULL) == 0x8F00000000000000ULL);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint64_t x = mix64(k);
    ASSERT_EQ(bit_reverse64(x), ref_bit_reverse64(x)) << k;
    ASSERT_EQ(bit_reverse64(bit_reverse64(x)), x);
  }
  for (int b = 0; b < 64; ++b)
    EXPECT_EQ(bit_reverse64(std::uint64_t{1} << b),
              std::uint64_t{1} << (63 - b));
}

TEST(AddressKernels, FieldAndWithFieldMatchPerBitLoops) {
  // Every (pos, width) with width <= 64 that fits: fields ending before,
  // at and after bit 64, and fields that cross it.
  for (std::uint64_t k = 0; k < 4; ++k) {
    const Ipv6 a = kernel_address(k);
    const std::uint64_t v = mix64(k + 100);
    for (int width = 0; width <= 64; ++width) {
      for (int pos = 0; pos + width <= 128; ++pos) {
        ASSERT_EQ(a.field(pos, width), ref_field(a, pos, width))
            << "pos " << pos << " width " << width;
        const Ipv6 w = a.with_field(pos, width, v);
        ASSERT_EQ(w, ref_with_field(a, pos, width, v))
            << "pos " << pos << " width " << width;
        const std::uint64_t low =
            width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
        ASSERT_EQ(w.field(pos, width), low);
      }
    }
  }
}

TEST(AddressKernels, RandomAddressMatchesPerBitLoopAtEveryLength) {
  for (int len = 0; len <= 128; ++len) {
    for (std::uint64_t k = 0; k < 2; ++k) {
      const Prefix p = Prefix::make(kernel_address(k * 131 + len), len);
      for (std::uint64_t salt = 0; salt < 64; ++salt) {
        const std::uint64_t s = mix64(salt) ^ salt;
        const Ipv6 a = p.random_address(s);
        ASSERT_EQ(a, ref_random_address(p, s)) << p.str() << " salt " << s;
        ASSERT_TRUE(p.contains(a));
      }
    }
  }
}

TEST(AddressKernels, LastMatchesPerBitLoopAtEveryLength) {
  for (int len = 0; len <= 128; ++len) {
    const Prefix p = Prefix::make(kernel_address(len), len);
    EXPECT_EQ(p.last(), ref_last(p)) << p.str();
  }
  EXPECT_EQ(pfx("::/0").last(),
            Ipv6::from_words(~std::uint64_t{0}, ~std::uint64_t{0}));
  EXPECT_EQ(pfx("2001:db8::1/128").last(), ip("2001:db8::1"));
}

TEST(AddressKernels, SubprefixMatchesPerBitLoop) {
  for (int extra = 1; extra <= 8; ++extra) {
    for (int len = 0; len + extra <= 128; ++len) {
      const Prefix p = Prefix::make(kernel_address(len), len);
      for (unsigned i = 0; i < (1u << extra); ++i)
        ASSERT_EQ(p.subprefix(i, extra), ref_subprefix(p, i, extra))
            << p.str() << " i " << i << " extra " << extra;
    }
  }
}

TEST(FrozenLpm, ExactAndLongestMatch) {
  const FrozenLpm<int> lpm{std::vector<std::pair<Prefix, int>>{
      {pfx("2001:db8::/32"), 1}, {pfx("2001:db8:1::/48"), 2},
      {pfx("::/0"), 0}}};

  EXPECT_TRUE(std::binary_search(lpm.prefixes().begin(),
                                 lpm.prefixes().end(), pfx("2001:db8::/32")));
  EXPECT_FALSE(std::binary_search(lpm.prefixes().begin(),
                                  lpm.prefixes().end(), pfx("2001:db8::/33")));

  auto m = lpm.longest_match(ip("2001:db8:1::1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->value, 2);
  EXPECT_EQ(m->prefix.str(), "2001:db8:1::/48");

  m = lpm.longest_match(ip("2001:db8:2::1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->value, 1);

  m = lpm.longest_match(ip("9999::1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->value, 0);
}

TEST(FrozenLpm, PrefixesInOrderAndSize) {
  const FrozenLpm<int> lpm{std::vector<std::pair<Prefix, int>>{
      {pfx("2001:db8::/32"), 1}, {pfx("2001:db8::/48"), 2},
      {pfx("2001:db7::/32"), 3}}};
  EXPECT_EQ(lpm.size(), 3u);

  std::vector<std::string> stored;
  for (const auto& p : lpm.prefixes()) stored.push_back(p.str());
  ASSERT_EQ(stored.size(), 3u);
  EXPECT_EQ(stored[0], "2001:db7::/32");
  EXPECT_EQ(stored[1], "2001:db8::/32");
  EXPECT_EQ(stored[2], "2001:db8::/48");
}

TEST(FrozenLpm, RepeatedPrefixKeepsLastValue) {
  const FrozenLpm<int> lpm{std::vector<std::pair<Prefix, int>>{
      {pfx("2001:db8::/32"), 1}, {pfx("2001:db8::/32"), 9}}};
  EXPECT_EQ(lpm.size(), 1u);
  EXPECT_EQ(*lpm.lookup(ip("2001:db8::1")), 9);
}

TEST(PrefixSet, CoverageSemantics) {
  const PrefixSet set({pfx("2600:1f00::/24"), pfx("2a0d:5600::/48")});
  EXPECT_TRUE(set.covers(ip("2600:1f12::99")));
  EXPECT_FALSE(set.covers(ip("2600:3c00::1")));
  EXPECT_EQ(set.covering(ip("2a0d:5600:0:1::2"))->str(), "2a0d:5600::/48");
  EXPECT_TRUE(set.contains_exact(pfx("2600:1f00::/24")));
  EXPECT_FALSE(set.contains_exact(pfx("2600:1f00::/32")));
  EXPECT_EQ(set.prefixes().size(), 2u);
}

TEST(Eui64, RoundTrip) {
  Mac mac{{0x00, 0x25, 0x9e, 0xab, 0xcd, 0xef}};
  const Ipv6 net = ip("2800:a000:1234:5600::");
  const Ipv6 a = apply_eui64(net, mac);
  EXPECT_TRUE(has_eui64_iid(a));
  auto back = eui64_mac(a);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, mac);
  EXPECT_EQ(back->oui(), kOuiZte);
  EXPECT_EQ(oui_vendor(back->oui()), "ZTE");
  // Upper 64 bits preserved.
  EXPECT_EQ(a.hi(), net.hi());
}

TEST(Eui64, NonEuiAddressesRejected) {
  EXPECT_FALSE(has_eui64_iid(ip("2001:db8::1")));
  EXPECT_FALSE(eui64_mac(ip("2001:db8::1")).has_value());
}

TEST(Teredo, DetectAndExtract) {
  const Ipv4 server{0x0D6B0001};
  const Ipv4 client{0x9DF01234};  // 157.240.18.52
  const Ipv6 t = make_teredo(server, client);
  EXPECT_TRUE(is_teredo(t));
  auto got = teredo_client(t);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, client.value);
  EXPECT_EQ(got->str(), "157.240.18.52");
  EXPECT_FALSE(is_teredo(ip("2001:db8::1")));
  EXPECT_FALSE(teredo_client(ip("2001:db8::1")).has_value());
}

TEST(Teredo, SixToFour) {
  EXPECT_TRUE(is_6to4(ip("2002:c000:0204::1")));
  auto v4 = sixto4_v4(ip("2002:c000:0204::1"));
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(v4->str(), "192.0.2.4");
  EXPECT_FALSE(is_6to4(ip("2001::1")));
}

TEST(Rng, DeterministicAndUniformish) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());

  Rng r(8);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[r.below(10)];
  for (int v : buckets) {
    EXPECT_GT(v, n / 10 * 0.9);
    EXPECT_LT(v, n / 10 * 1.1);
  }
}

TEST(Hash, MixingAndUnitRange) {
  EXPECT_NE(mix64(1), mix64(2));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = unit_from_hash(mix64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Util, HumanCounts) {
  EXPECT_EQ(human_count(593), "593");
  EXPECT_EQ(human_count(129100), "129.1 k");
  EXPECT_EQ(human_count(3200000), "3.2 M");
  EXPECT_EQ(human_count(1.5e9), "1.5 B");
  EXPECT_EQ(percent(0.4644, 2), "46.44 %");
}

TEST(Util, ScanDateCalendar) {
  EXPECT_EQ(ScanDate{0}.str(), "2018-07");
  EXPECT_EQ(ScanDate{5}.str(), "2018-12");
  EXPECT_EQ(ScanDate{6}.str(), "2019-01");
  EXPECT_EQ(ScanDate{9}.str(), "2019-04");
  EXPECT_EQ(ScanDate{45}.str(), "2022-04");
  EXPECT_EQ(kSnapshotScans[4], 45);
}

TEST(U128, Helpers) {
  EXPECT_EQ(u128_str(u128{0}), "0");
  EXPECT_EQ(u128_str(u128{12345}), "12345");
  EXPECT_EQ(u128_log2(u128_pow2(100)), 100);
  EXPECT_EQ(u128_log2(u128{0}), -1);
  EXPECT_NEAR(u128_to_double(u128_pow2(64)), 1.8446744e19, 1e13);
}

TEST(U128, Log2EdgeCases) {
  // Around the word boundary and the extremes of the countl_zero paths.
  EXPECT_EQ(u128_log2(u128{1}), 0);
  EXPECT_EQ(u128_log2(u128{2}), 1);
  EXPECT_EQ(u128_log2(u128{3}), 1);
  EXPECT_EQ(u128_log2(u128_pow2(63)), 63);
  EXPECT_EQ(u128_log2(u128_pow2(64)), 64);
  EXPECT_EQ(u128_log2(u128_pow2(64) - 1), 63);
  EXPECT_EQ(u128_log2(u128_pow2(64) + 1), 64);
  EXPECT_EQ(u128_log2(u128_pow2(127)), 127);
  EXPECT_EQ(u128_log2(~u128{0}), 127);
  static_assert(u128_log2(u128{1} << 127) == 127);  // stays constexpr
}

}  // namespace
}  // namespace sixdust
