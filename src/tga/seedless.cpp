#include "tga/seedless.hpp"

#include <algorithm>

#include "core/parallel.hpp"
#include "netbase/frozen_lpm.hpp"
#include "obs/metrics.hpp"

namespace sixdust {

std::vector<Ipv6> Seedless::generate(const Rib& rib,
                                     std::span<const Ipv6> covered,
                                     std::size_t budget) const {
  // Mark announced prefixes that already contain a seed. The per-address
  // longest-prefix lookup over the hitlist-scale `covered` set is the hot
  // loop here; the route-index table is shared read-only across the pool.
  // Route membership is a set union, so the per-chunk bitmaps merge
  // commutatively — any thread count yields the same marks.
  std::vector<std::pair<Prefix, std::size_t>> routes;
  routes.reserve(rib.routes().size());
  for (std::size_t i = 0; i < rib.routes().size(); ++i)
    routes.emplace_back(rib.routes()[i].prefix, i);
  const FrozenLpm<std::size_t> route_index(std::move(routes));
  const std::size_t chunks = parallel_chunks(pool_, covered.size());
  const auto covered_routes = ordered_reduce(
      pool_, chunks, std::vector<std::uint8_t>(rib.routes().size(), 0),
      [&](std::size_t c) {
        const auto [b, e] = chunk_range(covered.size(), chunks, c);
        std::vector<std::uint8_t> marks(rib.routes().size(), 0);
        for (std::size_t k = b; k < e; ++k)
          if (const std::size_t* r = route_index.lookup(covered[k]))
            marks[*r] = 1;
        return marks;
      },
      [](std::vector<std::uint8_t>& acc,
         const std::vector<std::uint8_t>& part) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] |= part[i];
      });

  std::vector<Ipv6> out;
  out.reserve(budget);
  for (std::size_t i = 0; i < rib.routes().size() && out.size() < budget;
       ++i) {
    if (covered_routes[i] != 0) continue;
    const Prefix& p = rib.routes()[i].prefix;
    // Enumerate the first /64s of the announced prefix (or the prefix
    // itself when it is a /64 or longer).
    const int sub_levels = p.len() >= 64 ? 0 : cfg_.subnets;
    for (int s = 0; s <= sub_levels && out.size() < budget; ++s) {
      Ipv6 net = p.base();
      if (p.len() < 64 && s > 0) {
        // Low subnet counters in the least significant /64-selecting bits.
        const int top = std::max(p.len(), 56);
        net = net.with_field(top, 64 - top, static_cast<std::uint64_t>(s));
      }
      for (int iid = 1; iid <= cfg_.low_iids && out.size() < budget; ++iid)
        out.push_back(Ipv6::from_words(net.hi(), static_cast<std::uint64_t>(iid)));
      for (std::uint64_t service : cfg_.service_iids) {
        if (out.size() >= budget) break;
        out.push_back(Ipv6::from_words(net.hi(), service));
      }
    }
  }
  dedup_addresses(out, pool_, metrics_);
  if (metrics_ != nullptr) {
    metrics_->counter("tga.calls{algo=seedless}", Stability::kStable).add(1);
    metrics_->counter("tga.seeds{algo=seedless}",
                      Stability::kStable).add(covered.size());
    metrics_->counter("tga.candidates{algo=seedless}",
                      Stability::kStable).add(out.size());
  }
  return out;
}

}  // namespace sixdust
