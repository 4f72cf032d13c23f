#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hitlist/input_db.hpp"

namespace sixdust {

/// The hitlist service's eligible input rows (not blocked, not excluded)
/// as one column sorted by address, carried from step to step (DESIGN.md
/// §12, "Sorted eligible column"). Only a few percent of the input changes
/// between two scans, so instead of re-sorting every eligible address each
/// step the column merges in the rows added since the last step and drops
/// the rows bookkeeping excluded. The APD round takes addrs() as its input
/// and the alias filter is one merge pass of it against the aliased set.
///
/// Next to the column it keeps the same rows in row (insertion) order,
/// the scan and traceroute order, so a step walks only the eligible rows
/// instead of every input row's Meta.
///
/// Invariant after catch_up(db): the column holds exactly the eligible
/// rows among db's rows, strictly ascending by address, rows() aligned
/// with addrs(); insertion_rows() holds the same rows ascending.
class EligibleColumn {
 public:
  /// Merge in the eligible rows of `db` added since the last call (all of
  /// them on the first call — a service restored from an archive starts
  /// here). The new rows are sorted on their own and merged in place from
  /// the back, and appended to insertion_rows().
  void catch_up(const InputDb& db);

  /// Drop `gone` (addresses `db` now marks excluded, any order). One
  /// sorted merge pass over the column; insertion_rows() drops the rows
  /// `db` marks excluded.
  void drop(const InputDb& db, std::span<const Ipv6> gone);

  /// Call f(r) for each eligible row of `db` added since the last
  /// catch_up, ascending: the rows the next catch_up(db) merges in.
  template <class F>
  void for_each_new_row(const InputDb& db, F&& f) const {
    for (auto r = merged_; r < db.size(); ++r)
      if (eligible(db.meta(r))) f(r);
  }

  /// Set by_row[r], for every column row r, to whether any of
  /// `sorted_prefixes` (lexicographic (base, len) order, as
  /// PrefixSet::prefixes() returns) covers its address: one CoverCursor
  /// pass. `by_row` must hold an entry for every row of the column; the
  /// entries of other rows are left as they are.
  void mark_covered(std::span<const Prefix> sorted_prefixes,
                    std::span<std::uint8_t> by_row) const;

  [[nodiscard]] std::span<const Ipv6> addrs() const { return addrs_; }
  [[nodiscard]] std::span<const std::uint32_t> rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  /// The column's rows in ascending row order.
  [[nodiscard]] std::span<const std::uint32_t> insertion_rows() const {
    return by_row_;
  }
 private:
  /// Scanned unless blocklisted or excluded by the 30-day filter.
  [[nodiscard]] static bool eligible(const InputDb::Meta& m) {
    return !m.blocked && !m.excluded;
  }

  std::vector<Ipv6> addrs_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> by_row_;
  /// Input rows below this one have been offered to the column.
  std::uint32_t merged_ = 0;
  /// Scratch reused across steps: catch_up's new rows with their
  /// addresses, drop's sorted addresses.
  struct Fresh {
    Ipv6 addr;
    std::uint32_t row;
  };
  std::vector<Fresh> fresh_;
  std::vector<Ipv6> gone_;
};

}  // namespace sixdust
