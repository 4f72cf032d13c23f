#include "hitlist/input_db.hpp"

namespace sixdust {

bool InputDb::add(const Ipv6& a, std::uint16_t tags, int scan_index,
                  const PrefixSet* blocklist) {
  auto [it, inserted] =
      rows_.try_emplace(a, static_cast<std::uint32_t>(order_.size()));
  if (!inserted) {
    meta_[it->second].tags |= tags;
    return false;
  }
  const bool blocked = blocklist != nullptr && blocklist->covers(a);
  order_.push_back(a);
  meta_.push_back({.tags = tags, .first_seen = scan_index, .blocked = blocked});
  if (blocked) ++blocked_count_;
  return true;
}

}  // namespace sixdust
