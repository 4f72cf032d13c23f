#include "hitlist/archive.hpp"

#include <cstdio>

#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace sixdust {
namespace {

constexpr std::uint32_t kMagic = 0x53584431;  // "SXD1"
constexpr std::uint32_t kVersion = 4;

struct Writer {
  FILE* f;
  bool ok = true;

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void addr(const Ipv6& a) {
    u64(a.hi());
    u64(a.lo());
  }
  void prefix(const Prefix& p) {
    addr(p.base());
    u8(static_cast<std::uint8_t>(p.len()));
  }
  void raw(const void* p, std::size_t n) {
    if (ok && std::fwrite(p, 1, n, f) != n) ok = false;
  }
};

/// Reads the archive and tracks the bytes left in the file, so a corrupt
/// count or prefix length fails the load (ok = false) instead of
/// allocating or restoring nonsense.
struct Reader {
  FILE* f;
  std::uint64_t left;
  bool ok = true;

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, 1);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    raw(&v, 2);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, 8);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    raw(&v, 4);
    return v;
  }
  Ipv6 addr() {
    const std::uint64_t hi = u64();
    const std::uint64_t lo = u64();
    return Ipv6::from_words(hi, lo);
  }
  Prefix prefix() {
    const Ipv6 base = addr();
    const std::uint8_t len = u8();
    if (len > 128) ok = false;
    return Prefix::make(base, len);
  }
  /// A record count, checked against the records of `record_size` bytes
  /// that still fit in the file.
  std::uint64_t count(std::size_t record_size) {
    const std::uint64_t n = u64();
    if (n > left / record_size) ok = false;
    return ok ? n : 0;
  }
  void raw(void* p, std::size_t n) {
    if (ok && (n > left || std::fread(p, 1, n, f) != n)) ok = false;
    if (ok) left -= n;
  }
};

}  // namespace

bool ServiceArchive::save(const HitlistService& service,
                          std::uint64_t fingerprint, const std::string& path) {
  // Volatile: whether/when archives are written is operator-driven, not
  // part of the simulated run.
  Span span = trace_span(&service.metrics(), "archive.save",
                         SpanCat::kArchive, Stability::kVolatile);
  span.attr("path", path);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    Logger::global().error("archive", "cannot open '" + path + "' for write");
    return false;
  }
  Writer w{f};
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(fingerprint);

  // Input list.
  const auto& input = service.input();
  w.u64(input.size());
  for (std::uint32_t r = 0; r < input.size(); ++r) {
    w.addr(input.addresses()[r]);
    w.u16(input.meta(r).tags);
    w.i32(input.meta(r).first_seen);
  }

  // History.
  const auto& entries = service.history().entries();
  w.u64(entries.size());
  for (const auto& e : entries) {
    w.i32(e.scan_index);
    w.u64(e.input_total);
    w.u64(e.scan_targets);
    w.u64(e.aliased_prefixes);
    w.raw(&e.duration_days, sizeof e.duration_days);
    w.u64(e.responsive.size());
    for (const auto& [a, mask] : e.responsive) {
      w.addr(a);
      w.u8(mask);
    }
  }

  // Aliased prefixes per scan.
  const auto& per_scan = service.aliased_per_scan();
  w.u64(per_scan.size());
  for (const auto& scan : per_scan) {
    w.u64(scan.size());
    for (const auto& p : scan) w.prefix(p);
  }

  // Exclusion pool.
  const auto& pool = service.unresponsive_pool();
  w.u64(pool.size());
  for (const auto& a : pool) w.addr(a);

  // GFW taint records.
  const auto& taint = service.gfw().taint_records();
  w.u64(taint.size());
  for (const auto& [a, rec] : taint) {
    w.addr(a);
    w.i32(rec.first_scan);
    w.u8(static_cast<std::uint8_t>((rec.saw_a_record ? 1 : 0) |
                                   (rec.saw_teredo ? 2 : 0)));
    w.i32(rec.max_responses);
  }

  const bool ok = w.ok;
  std::fclose(f);
  span.attr("entries", static_cast<std::uint64_t>(entries.size()))
      .attr("ok", ok ? "true" : "false");
  if (!ok)
    Logger::global().error("archive", "short write to '" + path + "'");
  return ok;
}

std::unique_ptr<HitlistService> ServiceArchive::load(
    const HitlistService::Config& cfg, std::uint64_t fingerprint,
    const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    Logger::global().warn("archive", "cannot open '" + path + "'");
    return nullptr;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Reader r{f, size < 0 ? 0 : static_cast<std::uint64_t>(size)};
  if (r.u32() != kMagic || r.u32() != kVersion || r.u64() != fingerprint) {
    Logger::global().warn(
        "archive", "'" + path + "' has wrong magic/version/fingerprint");
    std::fclose(f);
    return nullptr;
  }

  auto service = std::make_unique<HitlistService>(cfg);
  // The span rides on the new service's registry, so an attached tracer
  // (cfg.tracer) sees the restore as part of the run's timeline.
  Span span = trace_span(&service->metrics(), "archive.load",
                         SpanCat::kArchive, Stability::kVolatile);
  span.attr("path", path);

  const std::uint64_t n_input = r.u64();
  for (std::uint64_t i = 0; i < n_input && r.ok; ++i) {
    const Ipv6 a = r.addr();
    const std::uint16_t tags = r.u16();
    const std::int32_t first = r.i32();
    if (!r.ok) break;
    // The blocklist is part of the config, not the archive: recompute the
    // cached per-address verdict against the service's own blocklist so
    // eligible_targets() agrees with a never-archived run.
    if (!service->input_.add(a, tags, first, &service->blocklist_)) {
      // A repeat would fold into the first row (tags ORed), leaving the
      // input smaller than the input_total its history records.
      Logger::global().warn("archive", "'" + path + "' lists input " +
                                           a.str() + " twice");
      std::fclose(f);
      return nullptr;
    }
  }

  const std::uint64_t n_entries = r.u64();
  for (std::uint64_t i = 0; i < n_entries && r.ok; ++i) {
    History::Entry e;
    e.scan_index = r.i32();
    e.input_total = r.u64();
    e.scan_targets = r.u64();
    e.aliased_prefixes = r.u64();
    r.raw(&e.duration_days, sizeof e.duration_days);
    const std::uint64_t rows = r.count(16 + 1);  // address, mask
    e.responsive.reserve(rows);
    for (std::uint64_t k = 0; k < rows && r.ok; ++k) {
      const Ipv6 a = r.addr();
      e.responsive.emplace_back(a, r.u8());
    }
    service->history_.record(std::move(e));
  }

  const std::uint64_t n_scans = r.u64();
  for (std::uint64_t i = 0; i < n_scans && r.ok; ++i) {
    std::vector<Prefix> scan;
    const std::uint64_t count = r.count(16 + 1);  // base, length
    scan.reserve(count);
    for (std::uint64_t k = 0; k < count && r.ok; ++k)
      scan.push_back(r.prefix());
    service->aliased_per_scan_.push_back(std::move(scan));
  }
  if (!service->aliased_per_scan_.empty())
    service->aliased_ = PrefixSet(service->aliased_per_scan_.back());

  const std::uint64_t n_pool = r.u64();
  for (std::uint64_t i = 0; i < n_pool && r.ok; ++i) {
    const Ipv6 a = r.addr();
    if (!r.ok) break;
    const std::uint32_t row = service->input_.row(a);
    if (row == InputDb::kNoRow) {
      Logger::global().warn("archive", "'" + path + "' excludes " + a.str() +
                                           ", which is not in its input");
      std::fclose(f);
      return nullptr;
    }
    InputDb::Meta& m = service->input_.meta(row);
    if (m.excluded) {
      // A repeat would count twice in excluded_total and the published
      // unresponsive pool.
      Logger::global().warn("archive", "'" + path + "' excludes " + a.str() +
                                           " twice");
      std::fclose(f);
      return nullptr;
    }
    m.excluded = true;
    service->excluded_order_.push_back(a);
  }

  const std::uint64_t n_taint = r.u64();
  for (std::uint64_t i = 0; i < n_taint && r.ok; ++i) {
    GfwFilter::TaintRecord rec;
    rec.addr = r.addr();
    rec.first_scan = r.i32();
    const std::uint8_t flags = r.u8();
    rec.saw_a_record = flags & 1;
    rec.saw_teredo = flags & 2;
    rec.max_responses = r.i32();
    service->gfw_.restore_taint(rec);
  }

  const bool ok = r.ok;
  std::fclose(f);
  span.attr("input", static_cast<std::uint64_t>(n_input))
      .attr("history", static_cast<std::uint64_t>(n_entries))
      .attr("ok", ok ? "true" : "false");
  if (!ok) {
    Logger::global().warn("archive", "'" + path + "' is truncated or corrupt");
    return nullptr;
  }
  return service;
}

}  // namespace sixdust
