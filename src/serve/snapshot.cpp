#include "serve/snapshot.hpp"

#include <algorithm>

#include "hitlist/service.hpp"
#include "topo/world.hpp"

namespace sixdust::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

EpochSnapshot::EpochSnapshot(
    Info info, std::vector<std::pair<Ipv6, ProtoMask>> responsive,
    const std::vector<Prefix>& aliased, const Rib* rib)
    : info_(std::move(info)),
      responsive_(std::move(responsive)),
      aliased_(aliased),
      rib_(rib) {
  digest_ = content_digest();
}

std::optional<ProtoMask> EpochSnapshot::lookup(const Ipv6& a) const {
  const auto it = std::lower_bound(
      responsive_.begin(), responsive_.end(), a,
      [](const std::pair<Ipv6, ProtoMask>& row, const Ipv6& key) {
        return row.first < key;
      });
  if (it == responsive_.end() || it->first != a) return std::nullopt;
  return it->second;
}

std::uint64_t EpochSnapshot::content_digest() const {
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(info_.epoch));
  fnv(h, info_.input_total);
  fnv(h, info_.scan_targets);
  fnv(h, info_.aliased_prefixes);
  fnv(h, info_.responsive);
  fnv(h, info_.excluded_total);
  for (const auto& [a, mask] : responsive_) {
    fnv(h, a.hi());
    fnv(h, a.lo());
    fnv(h, mask);
  }
  for (const auto& p : aliased_.prefixes()) {
    fnv(h, p.base().hi());
    fnv(h, p.base().lo());
    fnv(h, static_cast<std::uint64_t>(p.len()));
  }
  return h;
}

std::shared_ptr<const EpochSnapshot> freeze_epoch(
    const HitlistService& service, const World& world, int epoch) {
  const History::Entry& entry = service.history().at(epoch);
  EpochSnapshot::Info info;
  info.epoch = epoch;
  info.date = ScanDate{epoch}.str();
  info.input_total = entry.input_total;
  info.scan_targets = entry.scan_targets;
  info.aliased_prefixes = entry.aliased_prefixes;
  info.responsive = entry.responsive.size();
  info.excluded_total = service.unresponsive_pool().size();
  return std::make_shared<const EpochSnapshot>(
      std::move(info), entry.responsive, service.aliased_list(),
      &world.rib());
}

}  // namespace sixdust::serve
