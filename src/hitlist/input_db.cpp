#include "hitlist/input_db.hpp"

namespace sixdust {

bool InputDb::add(const Ipv6& a, std::uint16_t tags, int scan_index,
                  const PrefixSet* blocklist) {
  const auto [row, inserted] = rows_.insert(order_, a);
  if (!inserted) {
    meta_[row].tags |= tags;
    return false;
  }
  const bool blocked = blocklist != nullptr && blocklist->covers(a);
  meta_.push_back({.tags = tags, .first_seen = scan_index, .blocked = blocked});
  if (blocked) ++blocked_count_;
  return true;
}

}  // namespace sixdust
