// Tests for the analysis module: AS distributions/CDFs, overlap matrices,
// EUI-64 statistics and the table renderer.

#include <gtest/gtest.h>

#include "analysis/distribution.hpp"
#include "analysis/eui_stats.hpp"
#include "analysis/overlap.hpp"
#include "analysis/report.hpp"

namespace sixdust {
namespace {

TEST(Distribution, RankingAndShares) {
  AsDistribution d;
  d.add(100, 60);
  d.add(200, 30);
  d.add(300, 10);
  EXPECT_EQ(d.total(), 100u);
  EXPECT_EQ(d.as_count(), 3u);
  const auto rows = d.ranked();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].asn, 100u);
  EXPECT_DOUBLE_EQ(rows[0].share, 0.6);
  EXPECT_DOUBLE_EQ(d.top_share(1), 0.6);
  EXPECT_DOUBLE_EQ(d.top_share(2), 0.9);
  EXPECT_DOUBLE_EQ(d.top_share(10), 1.0);
  EXPECT_EQ(d.ases_for_fraction(0.5), 1u);
  EXPECT_EQ(d.ases_for_fraction(0.65), 2u);
  EXPECT_EQ(d.ases_for_fraction(1.0), 3u);
}

TEST(Distribution, CdfSampling) {
  AsDistribution d;
  for (Asn a = 1; a <= 100; ++a) d.add(a, 1);
  const std::size_t ranks[] = {1, 10, 100};
  const auto cdf = d.cdf(ranks);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_NEAR(cdf[0].second, 0.01, 1e-9);
  EXPECT_NEAR(cdf[1].second, 0.10, 1e-9);
  EXPECT_NEAR(cdf[2].second, 1.00, 1e-9);
}

TEST(Distribution, OfAttributesViaRib) {
  const Rib rib({{pfx("2001:db8::/32"), 64512}, {pfx("2a00::/16"), 64513}});
  std::vector<Ipv6> addrs = {ip("2001:db8::1"), ip("2001:db8::2"),
                             ip("2a00:1::1"), ip("9999::1")};
  const auto d = AsDistribution::of(rib, addrs);
  EXPECT_EQ(d.counts().at(64512), 2u);
  EXPECT_EQ(d.counts().at(64513), 1u);
  EXPECT_EQ(d.counts().at(kAsnNone), 1u);  // unrouted
}

TEST(Overlap, FractionsAndUniqueness) {
  OverlapMatrix m;
  std::vector<Ipv6> a = {ip("::1"), ip("::2"), ip("::3"), ip("::4")};
  std::vector<Ipv6> b = {ip("::3"), ip("::4"), ip("::5")};
  std::vector<Ipv6> c = {ip("::9")};
  m.add_set("A", a);
  m.add_set("B", b);
  m.add_set("C", c);
  EXPECT_EQ(m.sets(), 3u);
  EXPECT_EQ(m.intersection(0, 1), 2u);
  EXPECT_DOUBLE_EQ(m.fraction(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.fraction(1, 0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.fraction(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.fraction(2, 0), 0.0);
  EXPECT_EQ(m.unique_to(0), 2u);  // ::1, ::2
  EXPECT_EQ(m.unique_to(2), 1u);  // ::9
}

TEST(EuiStats, CountsMacsAndVendors) {
  Mac zte{{0x00, 0x25, 0x9e, 0, 0, 1}};
  Mac avm{{0x34, 0x81, 0xc4, 0, 0, 2}};
  std::vector<Ipv6> addrs;
  // zte MAC in three different prefixes, avm in one, plus non-EUI noise.
  for (std::uint64_t p = 0; p < 3; ++p)
    addrs.push_back(apply_eui64(
        Ipv6::from_words(0x20010db800000000ULL + (p << 16), 0), zte));
  addrs.push_back(apply_eui64(ip("2003::"), avm));
  addrs.push_back(ip("2001:db8::1"));
  const auto s = eui_stats(addrs);
  EXPECT_EQ(s.total, 5u);
  EXPECT_EQ(s.eui64, 4u);
  EXPECT_EQ(s.distinct_macs, 2u);
  EXPECT_EQ(s.singleton_macs, 1u);
  EXPECT_EQ(s.top_mac_count, 3u);
  EXPECT_EQ(s.top_mac, zte);
  EXPECT_EQ(s.top_vendor, "ZTE");
}

TEST(Report, TableRendersAlignedCells) {
  Table t({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
  // Short rows are padded to the header width.
  Table t2({"a", "b", "c"});
  t2.row({"x"});
  EXPECT_NE(t2.str().find("| x |"), std::string::npos);
}

TEST(Report, Formatters) {
  EXPECT_EQ(fmt_count(3200000), "3.2 M");
  EXPECT_EQ(fmt_pct(0.4644, 2), "46.44 %");
  EXPECT_EQ(fmt_ratio(2.0, 1.0), "2.00x");
  EXPECT_EQ(fmt_ratio(1.0, 0.0), "n/a");
}

}  // namespace
}  // namespace sixdust
