#include "hitlist/eligible_column.hpp"

#include <algorithm>

#include "netbase/addr_batch.hpp"

namespace sixdust {

void EligibleColumn::catch_up(const InputDb& db) {
  const auto& all = db.addresses();
  fresh_.clear();
  for_each_new_row(db, [&](std::uint32_t r) {
    fresh_.push_back({all[r], r});
    by_row_.push_back(r);
  });
  merged_ = static_cast<std::uint32_t>(db.size());
  std::sort(fresh_.begin(), fresh_.end(),
            [](const Fresh& a, const Fresh& b) { return a.addr < b.addr; });

  // Merge from the back into the grown column: an old entry only moves to
  // a slot at or after its own, and the writes run from the back, so
  // nothing is overwritten before it is read. Addresses are distinct, so
  // there are no ties.
  std::size_t i = rows_.size();
  std::size_t j = fresh_.size();
  std::size_t k = i + j;
  addrs_.resize(k);
  rows_.resize(k);
  while (j > 0) {
    --k;
    const Fresh& f = fresh_[j - 1];
    if (i > 0 && f.addr < addrs_[i - 1]) {
      --i;
      addrs_[k] = addrs_[i];
      rows_[k] = rows_[i];
    } else {
      --j;
      addrs_[k] = f.addr;
      rows_[k] = f.row;
    }
  }
}

void EligibleColumn::drop(const InputDb& db, std::span<const Ipv6> gone) {
  if (gone.empty()) return;
  gone_.assign(gone.begin(), gone.end());
  std::sort(gone_.begin(), gone_.end());
  std::size_t j = 0;
  std::size_t write = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    while (j < gone_.size() && gone_[j] < addrs_[i]) ++j;
    if (j < gone_.size() && gone_[j] == addrs_[i]) continue;
    addrs_[write] = addrs_[i];
    rows_[write] = rows_[i];
    ++write;
  }
  addrs_.resize(write);
  rows_.resize(write);
  std::erase_if(by_row_,
                [&](std::uint32_t r) { return db.meta(r).excluded; });
}

void EligibleColumn::mark_covered(std::span<const Prefix> sorted_prefixes,
                                  std::span<std::uint8_t> by_row) const {
  CoverCursor cursor(sorted_prefixes);
  for (std::size_t i = 0; i < rows_.size(); ++i)
    by_row[rows_[i]] = cursor.covers(addrs_[i]) ? 1 : 0;
}

}  // namespace sixdust
