// Tests for the address/prefix list text format (the hitlist ecosystem's
// interchange format) and the analysis statistics helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <ios>
#include <sstream>
#include <streambuf>

#include "analysis/stats.hpp"
#include "netbase/addrio.hpp"

namespace sixdust {
namespace {

TEST(AddrIo, ReadsAddressesWithCommentsAndBlanks) {
  std::istringstream in(
      "# responsive addresses\n"
      "2001:db8::1\n"
      "\n"
      "2a00:1450::8a  # inline comment\n"
      "   2600:3c00::7\t\n"
      "#only a comment\n");
  const auto addrs = read_address_list(in);
  ASSERT_TRUE(addrs.has_value());
  ASSERT_EQ(addrs->size(), 3u);
  EXPECT_EQ((*addrs)[0], ip("2001:db8::1"));
  EXPECT_EQ((*addrs)[1], ip("2a00:1450::8a"));
  EXPECT_EQ((*addrs)[2], ip("2600:3c00::7"));
}

TEST(AddrIo, ReportsMalformedLine) {
  std::istringstream in("2001:db8::1\nbanana\n::2\n");
  std::size_t line = 0;
  EXPECT_FALSE(read_address_list(in, &line).has_value());
  EXPECT_EQ(line, 2u);
}

TEST(AddrIo, PrefixListRoundTrip) {
  const std::vector<Prefix> prefixes = {pfx("2001:db8::/32"),
                                        pfx("2602:f000::/28"),
                                        pfx("2a0d:5600:0:1::/64")};
  std::ostringstream out;
  write_prefix_list(out, prefixes, "aliased");
  std::istringstream in(out.str());
  const auto back = read_prefix_list(in);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, prefixes);
  EXPECT_NE(out.str().find("# aliased"), std::string::npos);
}

TEST(AddrIo, DirectoryIsAnError) {
  // An ifstream opens a directory; reading it must not give an empty list.
  const std::string dir = ::testing::TempDir();
  EXPECT_FALSE(read_address_file(dir).has_value());
  EXPECT_FALSE(read_prefix_file(dir).has_value());

  // A read error mid-stream is an error too, not the end of the list.
  struct FailingBuf : std::streambuf {
    std::string data = "2001:db8::1\n";
    bool served = false;
    int_type underflow() override {
      if (served) throw std::ios_base::failure("read error");
      served = true;
      setg(data.data(), data.data(), data.data() + data.size());
      return traits_type::to_int_type(*gptr());
    }
  };
  FailingBuf buf;
  std::istream in(&buf);
  std::size_t line = 0;
  EXPECT_FALSE(read_address_list(in, &line).has_value());
  EXPECT_EQ(line, 2u);
}

TEST(AddrIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sixdust_addrio_test.txt";
  const std::vector<Ipv6> addrs = {ip("::1"), ip("2001:db8::42")};
  ASSERT_TRUE(write_address_file(path, addrs, "test"));
  const auto back = read_address_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, addrs);
  std::remove(path.c_str());
  EXPECT_FALSE(read_address_file(path).has_value());
}

TEST(Stats, EvenDistributionIsFlat) {
  AsDistribution d;
  for (Asn a = 1; a <= 50; ++a) d.add(a, 10);
  EXPECT_NEAR(gini(d), 0.0, 0.02);
  EXPECT_NEAR(normalized_entropy(d), 1.0, 1e-9);
  EXPECT_NEAR(hhi(d), 1.0 / 50, 1e-9);
}

TEST(Stats, ConcentratedDistributionIsSkewed) {
  AsDistribution d;
  d.add(1, 960);
  for (Asn a = 2; a <= 41; ++a) d.add(a, 1);
  EXPECT_GT(gini(d), 0.85);
  EXPECT_LT(normalized_entropy(d), 0.3);
  EXPECT_GT(hhi(d), 0.9);
}

TEST(Stats, EmptyAndSingletonEdgeCases) {
  AsDistribution empty;
  EXPECT_DOUBLE_EQ(gini(empty), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy(empty), 0.0);
  EXPECT_DOUBLE_EQ(hhi(empty), 0.0);
  AsDistribution one;
  one.add(7, 100);
  EXPECT_DOUBLE_EQ(shannon_entropy(one), 0.0);
  EXPECT_DOUBLE_EQ(normalized_entropy(one), 0.0);
  EXPECT_DOUBLE_EQ(hhi(one), 1.0);
}

TEST(Stats, GiniOrdersByConcentration) {
  AsDistribution flat;
  AsDistribution mild;
  AsDistribution steep;
  for (Asn a = 1; a <= 20; ++a) {
    flat.add(a, 5);
    mild.add(a, a);
    steep.add(a, a * a * a);
  }
  EXPECT_LT(gini(flat), gini(mild));
  EXPECT_LT(gini(mild), gini(steep));
}

}  // namespace
}  // namespace sixdust
