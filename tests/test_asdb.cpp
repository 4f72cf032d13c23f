// Tests for the asdb module: AS registry, RIB longest-prefix matching and
// space accounting, geo lookup.

#include <gtest/gtest.h>

#include "asdb/geo.hpp"
#include "asdb/registry.hpp"
#include "asdb/rib.hpp"

namespace sixdust {
namespace {

TEST(Registry, AddFindAndLabel) {
  AsRegistry r;
  r.add({64512, "TestNet", "DE", AsKind::Hosting});
  const AsInfo* info = r.find(64512);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "TestNet");
  EXPECT_EQ(info->cc, "DE");
  EXPECT_EQ(r.label(64512), "TestNet (AS64512)");
  EXPECT_EQ(r.label(64513), "AS64513");
  EXPECT_EQ(r.find(64513), nullptr);
  // Overwrite keeps one entry.
  r.add({64512, "Renamed", "FR", AsKind::Isp});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.find(64512)->name, "Renamed");
}

TEST(Registry, WellKnownContainsThePapersCast) {
  const auto r = AsRegistry::well_known();
  EXPECT_EQ(r.find(kAsAmazon)->name, "Amazon");
  EXPECT_EQ(r.find(kAsFastly)->name, "Fastly");
  EXPECT_EQ(r.find(kAsTrafficforce)->cc, "LT");
  EXPECT_EQ(r.find(kAsChinaTelecomBb)->cc, "CN");
  EXPECT_EQ(r.find(kAsFreeSas)->kind, AsKind::Isp);
  for (Asn asn : kAsCnTable5) EXPECT_EQ(r.find(asn)->cc, "CN");
}

TEST(Rib, LongestPrefixMatchWins) {
  const Rib rib({{pfx("2001:db8::/32"), 1}, {pfx("2001:db8:ff00::/40"), 2}});
  EXPECT_EQ(rib.origin(ip("2001:db8::1")), std::optional<Asn>{1});
  EXPECT_EQ(rib.origin(ip("2001:db8:ff00::1")), std::optional<Asn>{2});
  EXPECT_EQ(rib.origin(ip("9999::1")), std::nullopt);
  const auto route = rib.route(ip("2001:db8:ff12::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->prefix.str(), "2001:db8:ff00::/40");
  EXPECT_EQ(route->origin, 2u);
}

TEST(Rib, PerAsAccounting) {
  const Rib rib({{pfx("2001:db8::/32"), 1},
                 {pfx("2a00::/32"), 1},
                 {pfx("2a02::/48"), 2}});
  EXPECT_EQ(rib.prefix_count(), 3u);
  EXPECT_EQ(rib.as_count(), 2u);
  EXPECT_EQ(rib.prefixes_of(1).size(), 2u);
  EXPECT_EQ(rib.prefixes_of(3).size(), 0u);
  EXPECT_EQ(rib.announced_space(1), u128_pow2(96) * 2);
  EXPECT_EQ(rib.announced_space(2), u128_pow2(80));
  EXPECT_EQ(rib.announced_space(3), u128{0});
}

TEST(Geo, MapsAddressesViaOriginAs) {
  AsRegistry reg;
  reg.add({4134, "CT", "CN", AsKind::Transit});
  reg.add({3320, "DTAG", "DE", AsKind::Isp});
  const Rib rib({{pfx("240e::/20"), 4134}, {pfx("2003::/19"), 3320}});
  GeoDb geo(&rib, &reg);
  EXPECT_EQ(geo.country(ip("240e:123::1")), "CN");
  EXPECT_EQ(geo.country(ip("2003:42::1")), "DE");
  EXPECT_EQ(geo.country(ip("9999::1")), "??");
}

}  // namespace
}  // namespace sixdust
