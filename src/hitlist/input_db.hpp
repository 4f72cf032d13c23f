#pragma once

#include <vector>

#include "netbase/addr_index.hpp"
#include "netbase/prefix_set.hpp"
#include "topo/behavior.hpp"

namespace sixdust {

/// The accumulated candidate-input list of the hitlist service: every
/// address ever delivered by any source, with provenance tags and
/// first-seen scan. The paper's Sec. 4.1 analyses exactly this object
/// (growth 90 M -> 790 M, per-AS bias, EUI-64 reuse).
/// Each address owns one row, numbered by insertion: addresses()[r] and
/// meta(r) hold all of its per-address service state. The 30-day filter
/// fields are written only by HitlistService::step and ServiceArchive::load.
class InputDb {
 public:
  static constexpr std::uint32_t kNoRow = AddrIndex::kNone;

  struct Meta {
    std::uint16_t tags = 0;
    int first_seen = 0;
    /// Blocklist verdict, computed once on first insertion. The service's
    /// blocklist is immutable after construction, so the verdict never
    /// changes and eligible_targets() becomes a flag check instead of a
    /// longest-prefix match over the whole accumulated DB every scan.
    bool blocked = false;
    /// 30-day filter: permanently excluded; scans missed in a row.
    bool excluded = false;
    int misses = 0;
  };

  /// Returns true when the address is new. `blocklist` (may be null) is
  /// consulted only for new addresses, caching the coverage verdict in the
  /// address's Meta.
  bool add(const Ipv6& a, std::uint16_t tags, int scan_index,
           const PrefixSet* blocklist = nullptr);

  [[nodiscard]] bool contains(const Ipv6& a) const {
    return row(a) != kNoRow;
  }
  /// The address's row, or kNoRow when it was never added.
  [[nodiscard]] std::uint32_t row(const Ipv6& a) const {
    return rows_.find(order_, a);
  }
  [[nodiscard]] const Meta* find(const Ipv6& a) const {
    const std::uint32_t r = row(a);
    return r == kNoRow ? nullptr : &meta_[r];
  }
  [[nodiscard]] const Meta& meta(std::uint32_t r) const { return meta_[r]; }
  [[nodiscard]] Meta& meta(std::uint32_t r) { return meta_[r]; }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  /// Accumulated addresses whose cached blocklist verdict is "covered".
  [[nodiscard]] std::size_t blocked_count() const { return blocked_count_; }

  /// Addresses in insertion order (stable iteration for scans).
  [[nodiscard]] const std::vector<Ipv6>& addresses() const { return order_; }

 private:
  std::vector<Ipv6> order_;
  AddrIndex rows_;  // address -> row, keyed through order_
  std::vector<Meta> meta_;
  std::size_t blocked_count_ = 0;
};

}  // namespace sixdust
