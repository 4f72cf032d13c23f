#include "topo/censored_network.hpp"

#include <algorithm>

namespace sixdust {

CensoredNetwork::CensoredNetwork(Config cfg) : cfg_(cfg) {
  prefixes_.push_back(cfg_.prefix);
  real_hosts_sorted_.reserve(cfg_.real_hosts);
  for (std::uint32_t i = 0; i < cfg_.real_hosts; ++i)
    real_hosts_sorted_.push_back(real_host_address(i));
  std::sort(real_hosts_sorted_.begin(), real_hosts_sorted_.end());
}

Ipv6 CensoredNetwork::real_host_address(std::uint32_t i) const {
  return cfg_.prefix.random_address(hash_combine(cfg_.seed, 0x4EA1 + i));
}

std::optional<HostBehavior> CensoredNetwork::host(const Ipv6& a,
                                                  ScanDate d) const {
  if (!std::binary_search(real_hosts_sorted_.begin(),
                          real_hosts_sorted_.end(), a))
    return std::nullopt;
  // Ordinary availability churn.
  if (unit_from_hash(hash_combine(hash_of(a, cfg_.seed),
                                  0xC4 + static_cast<std::uint64_t>(d.index))) >= 0.93)
    return std::nullopt;
  HostBehavior b;
  b.key = hash_of(a, cfg_.seed);
  b.path_len = cfg_.path_len;
  b.responsive = proto_bit(Proto::Icmp);
  if (unit_from_hash(hash_combine(b.key, 80)) < cfg_.real_tcp80_frac)
    b.responsive |= proto_bit(Proto::Tcp80);
  b.tcp = TcpFeatures{"MSTNW", 29200, 7, 1440, 64};
  return b;
}

void CensoredNetwork::enumerate_known(ScanDate d,
                                      std::vector<KnownAddress>& out) const {
  // The genuinely responsive hosts are reachable via ordinary DNS data.
  if (d.index != 0) return;  // visible from the start; sources dedup anyway
  for (std::uint32_t i = 0; i < cfg_.real_hosts; ++i)
    out.push_back(KnownAddress{real_host_address(i), cfg_.known_tags});
}

Ipv6 CensoredNetwork::border_router(const Ipv6& target, ScanDate d) const {
  const std::uint64_t slot = hash_of(target) % cfg_.router_count;
  const std::uint64_t h = hash_combine(
      hash_combine(cfg_.seed, 0xB02DE2),
      hash_combine(slot, static_cast<std::uint64_t>(d.index)));
  return cfg_.prefix.random_address(h);
}

}  // namespace sixdust
