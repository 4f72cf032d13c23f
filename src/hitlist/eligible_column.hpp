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
/// Invariant after catch_up(db): the column holds exactly the eligible
/// rows among db's rows, strictly ascending by address, rows() aligned
/// with addrs().
class EligibleColumn {
 public:
  /// Merge in the eligible rows of `db` added since the last call (all of
  /// them on the first call — a service restored from an archive starts
  /// here). The new rows are sorted on their own and merged in place from
  /// the back.
  void catch_up(const InputDb& db);

  /// Drop `gone` (addresses now excluded, any order). One sorted merge
  /// pass over the column.
  void drop(std::span<const Ipv6> gone);

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

 private:
  std::vector<Ipv6> addrs_;
  std::vector<std::uint32_t> rows_;
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
