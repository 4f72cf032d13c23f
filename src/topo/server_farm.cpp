#include "topo/server_farm.hpp"

#include "netbase/hash.hpp"

namespace sixdust {
namespace {

/// Canonical TCP fingerprints for the three OS classes in the simulation.
TcpFeatures os_features(int os_class) {
  switch (os_class % 3) {
    case 0:
      return {"MSTNW", 29200, 7, 1440, 64};   // Linux
    case 1:
      return {"MNWNNTSE", 65535, 6, 1440, 64};  // BSD-ish
    default:
      return {"MNWS", 8192, 8, 1380, 128};    // middlebox/other
  }
}

}  // namespace

ServerFarm::ServerFarm(Config cfg) : cfg_(cfg) {
  prefixes_.push_back(cfg_.prefix);
}

std::uint32_t ServerFarm::subnet_count(ScanDate d) const {
  if (d.index < cfg_.appears) return 0;
  const auto age = static_cast<std::uint32_t>(d.index - cfg_.appears);
  return cfg_.subnets + cfg_.growth_subnets_per_scan * age;
}

Ipv6 ServerFarm::host_address(std::uint32_t s, std::uint32_t i) const {
  const Ipv6 a =
      cfg_.prefix.base().with_field(cfg_.prefix.len(), cfg_.subnet_bits, s);
  return Ipv6::from_words(a.hi(), 1 + static_cast<std::uint64_t>(i) * cfg_.iid_stride);
}

std::optional<ServerFarm::Loc> ServerFarm::locate(const Ipv6& a,
                                                  ScanDate d) const {
  if (!cfg_.prefix.contains(a)) return std::nullopt;
  // Subnet field must fit above the IID and the bits in between are zero.
  const auto s = static_cast<std::uint32_t>(
      a.field(cfg_.prefix.len(), cfg_.subnet_bits));
  if (s >= subnet_count(d)) return std::nullopt;
  const int gap = cfg_.prefix.len() + cfg_.subnet_bits;
  if (gap < 64 && a.field(gap, 64 - gap) != 0) return std::nullopt;
  const std::uint64_t iid = a.lo();
  if (iid == 0 || (iid - 1) % cfg_.iid_stride != 0) return std::nullopt;
  const std::uint64_t i = (iid - 1) / cfg_.iid_stride;
  if (i >= cfg_.hosts_per_subnet) return std::nullopt;
  return Loc{s, static_cast<std::uint32_t>(i)};
}

bool ServerFarm::host_up(std::uint64_t host_id, ScanDate d) const {
  if (unit_from_hash(hash_combine(host_id, 0x57ab1e)) < cfg_.stable_frac)
    return true;
  return unit_from_hash(hash_combine(host_id, 0xf1a6 + static_cast<std::uint64_t>(d.index) * 1315423911ULL)) <
         cfg_.flaky_up;
}

HostBehavior ServerFarm::behavior_of(std::uint64_t host_id,
                                     const Ipv6& a) const {
  HostBehavior b;
  b.key = hash_combine(host_id, 0x605717);
  b.path_len = cfg_.path_len;
  b.responsive = proto_bit(Proto::Icmp);
  // Protocol support is correlated the way real web servers are: HTTPS
  // implies HTTP almost always, and QUIC (HTTP/3) implies HTTPS — the
  // overlaps of the paper's Fig. 10.
  const bool t80 =
      unit_from_hash(hash_combine(host_id, 80)) < cfg_.tcp80_frac;
  const double p443 =
      t80 ? (cfg_.tcp80_frac > 0 ? 0.9 * cfg_.tcp443_frac / cfg_.tcp80_frac
                                 : 0.0)
          : 0.1 * cfg_.tcp443_frac;
  const bool t443 = unit_from_hash(hash_combine(host_id, 443)) < p443;
  const double pquic =
      t443 ? (cfg_.tcp443_frac > 0 ? 0.9 * cfg_.udp443_frac / cfg_.tcp443_frac
                                   : 0.0)
           : 0.05 * cfg_.udp443_frac;
  if (t80) b.responsive |= proto_bit(Proto::Tcp80);
  if (t443) b.responsive |= proto_bit(Proto::Tcp443);
  if (unit_from_hash(hash_combine(host_id, 4430)) < pquic)
    b.responsive |= proto_bit(Proto::Udp443);
  if (unit_from_hash(hash_combine(host_id, 53)) < cfg_.udp53_frac)
    b.responsive |= proto_bit(Proto::Udp53);
  b.tcp = os_features(static_cast<int>(hash_combine(host_id, 0x05) % 3));
  // DNS responder mix of the paper's Sec. 4.2 validation: mostly
  // authoritative/closed servers answering with an error status.
  const double r = unit_from_hash(hash_combine(host_id, 0xd25));
  if (r < 0.93) {
    b.dns = DnsServerKind::ErrorStatus;
  } else if (r < 0.93 + 0.044) {
    b.dns = DnsServerKind::Recursive;
  } else if (r < 0.93 + 0.044 + 0.012) {
    b.dns = DnsServerKind::Referral;
  } else if (r < 0.93 + 0.044 + 0.012 + 0.004) {
    b.dns = DnsServerKind::Proxy;
  } else {
    b.dns = DnsServerKind::Broken;
  }
  (void)a;
  return b;
}

std::optional<HostBehavior> ServerFarm::host(const Ipv6& a, ScanDate d) const {
  auto loc = locate(a, d);
  if (!loc) return std::nullopt;
  const std::uint64_t host_id =
      hash_combine(hash_combine(cfg_.seed, loc->subnet), loc->host);
  if (!host_up(host_id, d)) return std::nullopt;
  return behavior_of(host_id, a);
}

void ServerFarm::enumerate_known(ScanDate d,
                                 std::vector<KnownAddress>& out) const {
  const std::uint32_t subs = subnet_count(d);
  for (std::uint32_t s = 0; s < subs; ++s) {
    for (std::uint32_t i = 0; i < cfg_.hosts_per_subnet; ++i) {
      const std::uint64_t host_id =
          hash_combine(hash_combine(cfg_.seed, s), i);
      if (unit_from_hash(hash_combine(host_id, 0x1c70)) >= cfg_.known_frac)
        continue;
      out.push_back(KnownAddress{host_address(s, i), cfg_.known_tags});
    }
  }
}

std::optional<Ipv6> ServerFarm::domain_address(std::uint64_t domain_id,
                                               ScanDate d) const {
  if (cfg_.domain_share <= 0) return std::nullopt;
  const std::uint32_t subs = subnet_count(d);
  if (subs == 0) return std::nullopt;
  const std::uint32_t s =
      static_cast<std::uint32_t>(hash_combine(domain_id, cfg_.seed) % subs);
  const std::uint32_t i = static_cast<std::uint32_t>(
      hash_combine(domain_id, cfg_.seed + 1) % cfg_.hosts_per_subnet);
  return host_address(s, i);
}

std::optional<Ipv6> ServerFarm::infra_address(std::uint64_t infra_id,
                                              ScanDate d) const {
  return domain_address(hash_combine(infra_id, 0x1f5a), d);
}

}  // namespace sixdust
