// Tests for the service archive: a saved run restores bit-identically for
// every accessor the analysis layer uses.

#include <gtest/gtest.h>

#include <cstdio>

#include "hitlist/archive.hpp"
#include "obs/log.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

TEST(Archive, RoundTripsPublishedState) {
  auto world = build_test_world(81);
  HitlistService::Config cfg;
  HitlistService service(cfg);
  for (int i = 0; i < 10; ++i) service.step(*world, ScanDate{i});

  const std::string path = ::testing::TempDir() + "/sixdust_archive_test.bin";
  ASSERT_TRUE(ServiceArchive::save(service, 0xF00D, path));

  auto loaded = ServiceArchive::load(cfg, 0xF00D, path);
  ASSERT_NE(loaded, nullptr);

  // Input list.
  ASSERT_EQ(loaded->input().size(), service.input().size());
  for (std::size_t i = 0; i < service.input().addresses().size(); ++i) {
    const Ipv6& a = service.input().addresses()[i];
    EXPECT_EQ(loaded->input().addresses()[i], a);
    const auto* m0 = service.input().find(a);
    const auto* m1 = loaded->input().find(a);
    ASSERT_NE(m1, nullptr);
    EXPECT_EQ(m0->tags, m1->tags);
    EXPECT_EQ(m0->first_seen, m1->first_seen);
  }

  // History.
  ASSERT_EQ(loaded->history().entries().size(),
            service.history().entries().size());
  for (int s = 0; s < 10; ++s) {
    const auto& e0 = service.history().at(s);
    const auto& e1 = loaded->history().at(s);
    EXPECT_EQ(e0.responsive, e1.responsive);
    EXPECT_EQ(e0.input_total, e1.input_total);
    EXPECT_EQ(e0.scan_targets, e1.scan_targets);
    EXPECT_EQ(e0.aliased_prefixes, e1.aliased_prefixes);
  }

  // Aliased prefixes (current + per-scan) and the coverage set.
  EXPECT_EQ(loaded->aliased_list(), service.aliased_list());
  ASSERT_EQ(loaded->aliased_per_scan().size(),
            service.aliased_per_scan().size());
  for (const auto& p : service.aliased_list())
    EXPECT_TRUE(loaded->aliased().covers(p.random_address(1)));

  // Exclusion pool.
  EXPECT_EQ(loaded->unresponsive_pool(), service.unresponsive_pool());
  for (const auto& a : service.unresponsive_pool())
    EXPECT_TRUE(loaded->excluded(a));

  // GFW taint.
  EXPECT_EQ(loaded->gfw().tainted_count(), service.gfw().tainted_count());
  for (const auto& [a, rec] : service.gfw().taint_records()) {
    ASSERT_TRUE(loaded->gfw().tainted(a));
    const auto& r1 = loaded->gfw().taint_records().at(a);
    EXPECT_EQ(r1.first_scan, rec.first_scan);
    EXPECT_EQ(r1.saw_a_record, rec.saw_a_record);
    EXPECT_EQ(r1.saw_teredo, rec.saw_teredo);
    EXPECT_EQ(r1.max_responses, rec.max_responses);
  }

  // Cleaned counts — the analysis benches' core query — must agree.
  for (int s = 0; s < 10; ++s) {
    const auto c0 = service.history().counts(s, &service.gfw());
    const auto c1 = loaded->history().counts(s, &loaded->gfw());
    EXPECT_EQ(c0.any, c1.any);
    EXPECT_EQ(c0.per_proto, c1.per_proto);
  }

  std::remove(path.c_str());
}

TEST(Archive, RejectsWrongFingerprintAndMissingFile) {
  auto world = build_test_world(82);
  HitlistService::Config cfg;
  HitlistService service(cfg);
  service.step(*world, ScanDate{0});
  const std::string path = ::testing::TempDir() + "/sixdust_archive_fp.bin";
  ASSERT_TRUE(ServiceArchive::save(service, 1, path));
  EXPECT_EQ(ServiceArchive::load(cfg, 2, path), nullptr);
  EXPECT_EQ(ServiceArchive::load(cfg, 1, path + ".nope"), nullptr);
  // Truncated file.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_EQ(ServiceArchive::load(cfg, 1, path), nullptr);
  std::remove(path.c_str());
}

TEST(Archive, RejectsPoolAddressOutsideInput) {
  auto world = build_test_world(83);
  HitlistService::Config cfg;
  HitlistService service(cfg);
  for (int i = 0; i < 10; ++i) service.step(*world, ScanDate{i});
  ASSERT_FALSE(service.unresponsive_pool().empty());
  const std::string path = ::testing::TempDir() + "/sixdust_archive_pool.bin";
  ASSERT_TRUE(ServiceArchive::save(service, 3, path));
  ASSERT_NE(ServiceArchive::load(cfg, 3, path), nullptr);

  // The last pool address is the 16 bytes before the taint section: its
  // count, then 25 bytes per record.
  const Ipv6 outsider = ip("2001:db8:dead::1");
  ASSERT_FALSE(service.input().contains(outsider));
  const long taint_bytes =
      8 + 25 * static_cast<long>(service.gfw().taint_records().size());
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -(taint_bytes + 16), SEEK_END), 0);
  const std::uint64_t words[2] = {outsider.hi(), outsider.lo()};
  ASSERT_EQ(std::fwrite(words, 1, sizeof words, f), sizeof words);
  std::fclose(f);
  EXPECT_EQ(ServiceArchive::load(cfg, 3, path), nullptr);
  std::remove(path.c_str());
}

TEST(Archive, RejectsOversizedCountsAndPrefixLengths) {
  auto world = build_test_world(84);
  HitlistService::Config cfg;
  HitlistService service(cfg);
  for (int i = 0; i < 4; ++i) service.step(*world, ScanDate{i});
  const auto& last_scan = service.aliased_per_scan().back();
  ASSERT_FALSE(last_scan.empty());
  const std::string path = ::testing::TempDir() + "/sixdust_archive_size.bin";

  // Offsets into the v4 layout. From the front: 16 header bytes, the
  // input count and 22 bytes per input, the history count, then the first
  // entry's 4 + 3 * 8 + 8 fixed bytes before its row count. From the back:
  // the taint and pool sections, then the last scan's prefixes (17 bytes
  // each) behind their count.
  const long rows_at =
      16 + 8 + 22 * static_cast<long>(service.input().size()) + 8 + 36;
  const long tail =
      8 + 25 * static_cast<long>(service.gfw().taint_records().size()) + 8 +
      16 * static_cast<long>(service.unresponsive_pool().size());
  const long count_at = -(tail + 17 * static_cast<long>(last_scan.size()) + 8);
  const long len_at = -(tail + 1);

  const auto load_patched = [&](long offset, int whence, const void* bytes,
                                std::size_t n) {
    ASSERT_TRUE(ServiceArchive::save(service, 4, path));
    ASSERT_NE(ServiceArchive::load(cfg, 4, path), nullptr);
    FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, whence), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, n, f), n);
    std::fclose(f);
    Logger::global().set_capture(true);
    EXPECT_EQ(ServiceArchive::load(cfg, 4, path), nullptr);
    EXPECT_NE(Logger::global().take_captured().find(path), std::string::npos);
    Logger::global().set_capture(false);
  };
  const std::uint64_t huge = std::uint64_t{1} << 62;
  load_patched(rows_at, SEEK_SET, &huge, sizeof huge);
  load_patched(count_at, SEEK_END, &huge, sizeof huge);
  const std::uint8_t len = 200;
  load_patched(len_at, SEEK_END, &len, sizeof len);
  std::remove(path.c_str());
}

TEST(Archive, RejectsDuplicateInputOrPoolAddress) {
  auto world = build_test_world(85);
  HitlistService::Config cfg;
  HitlistService service(cfg);
  for (int i = 0; i < 10; ++i) service.step(*world, ScanDate{i});
  const auto& input = service.input().addresses();
  const auto& pool = service.unresponsive_pool();
  ASSERT_GE(input.size(), 2u);
  ASSERT_GE(pool.size(), 2u);
  const std::string path = ::testing::TempDir() + "/sixdust_archive_dup.bin";

  // A later input record that names the first address again. Its own
  // address must not be in the pool: dropping it would fail the load for
  // another reason (a pool address outside the input).
  std::size_t dup_row = 1;
  while (dup_row < input.size() && service.excluded(input[dup_row])) ++dup_row;
  ASSERT_LT(dup_row, input.size());

  // Offsets into the v4 layout: input record r starts after the 16 header
  // bytes, the input count and r 22-byte records; the last pool address
  // is the 16 bytes before the taint section.
  const long dup_input_at = 16 + 8 + 22 * static_cast<long>(dup_row);
  const long taint_bytes =
      8 + 25 * static_cast<long>(service.gfw().taint_records().size());
  const long last_pool_at = -(taint_bytes + 16);

  const auto load_with = [&](long offset, int whence, const Ipv6& a,
                             const std::string& expect) {
    ASSERT_TRUE(ServiceArchive::save(service, 5, path));
    ASSERT_NE(ServiceArchive::load(cfg, 5, path), nullptr);
    FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, whence), 0);
    const std::uint64_t words[2] = {a.hi(), a.lo()};
    ASSERT_EQ(std::fwrite(words, 1, sizeof words, f), sizeof words);
    std::fclose(f);
    Logger::global().set_capture(true);
    EXPECT_EQ(ServiceArchive::load(cfg, 5, path), nullptr);
    const std::string log = Logger::global().take_captured();
    Logger::global().set_capture(false);
    EXPECT_NE(log.find(path), std::string::npos) << log;
    EXPECT_NE(log.find(expect + (" " + a.str() + " twice")),
              std::string::npos)
        << log;
  };
  load_with(dup_input_at, SEEK_SET, input[0], "lists input");
  // The last pool entry names the first pool address again.
  load_with(last_pool_at, SEEK_END, pool[0], "excludes");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sixdust
