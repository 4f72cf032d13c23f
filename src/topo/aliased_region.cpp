#include "topo/aliased_region.hpp"

#include <algorithm>

#include "netbase/hash.hpp"

namespace sixdust {

AliasedRegion::AliasedRegion(Config cfg)
    : cfg_(std::move(cfg)), coverage_(cfg_.prefixes) {}

std::uint32_t AliasedRegion::sparse_count_at(ScanDate d) const {
  if (cfg_.sparse64_count == 0) return 0;
  if (d.index < cfg_.appears) return 0;
  const auto age = static_cast<std::uint32_t>(d.index - cfg_.appears);
  return cfg_.sparse64_count + cfg_.sparse64_growth * age;
}

Prefix AliasedRegion::sparse_unit(std::size_t prefix_idx,
                                  std::uint32_t j) const {
  const Prefix& p = cfg_.prefixes[prefix_idx];
  const std::uint64_t h =
      hash_combine(hash_combine(cfg_.seed, prefix_idx), j);
  // Bit b of the /64 (MSB-first) is bit b of h: the bit-reversed hash.
  const std::uint64_t host_hi =
      p.len() >= 64 ? 0 : ~std::uint64_t{0} >> p.len();
  return Prefix::make(
      Ipv6::from_words(p.base().hi() | (bit_reverse64(h) & host_hi), 0), 64);
}

const AliasedRegion::SparseTable& AliasedRegion::sparse_table(
    ScanDate d) const {
  const std::uint32_t want = sparse_count_at(d);
  const std::uint64_t slot =
      cfg_.sparse64_growth == 0
          ? 0
          : static_cast<std::uint64_t>(d.index - cfg_.appears);
  return sparse_tables_.get(slot, [&] {
    SparseTable table(cfg_.prefixes.size());
    for (std::size_t pi = 0; pi < cfg_.prefixes.size(); ++pi) {
      auto& words = table[pi];
      words.reserve(want);
      for (std::uint32_t j = 0; j < want; ++j)
        words.push_back(sparse_unit(pi, j).base().hi());
      std::sort(words.begin(), words.end());
      words.erase(std::unique(words.begin(), words.end()), words.end());
    }
    return table;
  });
}

std::optional<Prefix> AliasedRegion::unit_of(const Ipv6& a,
                                             ScanDate d) const {
  if (d.index < cfg_.appears) return std::nullopt;
  auto covering = coverage_.covering(a);
  if (!covering) return std::nullopt;
  if (cfg_.sparse64_count == 0) return covering;

  for (std::size_t pi = 0; pi < cfg_.prefixes.size(); ++pi) {
    if (!cfg_.prefixes[pi].contains(a)) continue;
    const auto& words = sparse_table(d)[pi];
    if (std::binary_search(words.begin(), words.end(), a.hi()))
      return Prefix::make(a, 64);
    return std::nullopt;
  }
  return std::nullopt;
}

std::optional<HostBehavior> AliasedRegion::host(const Ipv6& a,
                                                ScanDate d) const {
  auto unit = unit_of(a, d);
  if (!unit) return std::nullopt;
  HostBehavior b;
  b.responsive = cfg_.protos;
  b.path_len = cfg_.path_len;
  b.dns = cfg_.dns;
  b.can_fragment = cfg_.honors_ptb;
  const std::uint64_t unit_id = hash_of(unit->base(), cfg_.seed);
  switch (cfg_.mode) {
    case AliasMode::SingleHost:
      b.key = unit_id;
      break;
    case AliasMode::LoadBalanced:
      b.key = hash_combine(unit_id, hash_of(a) % cfg_.lb_partitions);
      break;
    case AliasMode::MultiHost:
      b.key = hash_of(a, cfg_.seed);
      break;
  }
  // CDN edges present a centrally administered, uniform TCP stack; only
  // MultiHost regions expose per-machine variation (window size).
  b.tcp = TcpFeatures{"MSTNW", 65535, 9, 1440, 64};
  if (cfg_.mode == AliasMode::MultiHost)
    b.tcp.window = static_cast<std::uint16_t>(16384 + (b.key & 0x7fff));
  return b;
}

void AliasedRegion::enumerate_known(ScanDate d,
                                    std::vector<KnownAddress>& out) const {
  if (d.index < cfg_.appears) return;
  const std::uint32_t sparse = sparse_count_at(d);
  if (cfg_.known_cover_units) {
    for (const auto& unit : truth_aliased_units(d))
      out.push_back(
          KnownAddress{unit.random_address(cfg_.seed ^ 0xC0FE), cfg_.known_tags});
  }
  for (std::uint32_t j = 0; j < cfg_.known_per_scan; ++j) {
    const std::uint64_t h = hash_combine(
        hash_combine(cfg_.seed, 0xCD17),
        (static_cast<std::uint64_t>(d.index) << 32) | j);
    const std::size_t pi = h % cfg_.prefixes.size();
    Prefix unit = cfg_.prefixes[pi];
    if (sparse > 0) unit = sparse_unit(pi, static_cast<std::uint32_t>(mix64(h) % sparse));
    out.push_back(KnownAddress{unit.random_address(h), cfg_.known_tags});
  }
}

std::optional<Ipv6> AliasedRegion::domain_address(std::uint64_t domain_id,
                                                  ScanDate d) const {
  if (cfg_.domain_share <= 0 || d.index < cfg_.appears) return std::nullopt;
  // Quadratic skew: a few prefixes host the bulk of the domains (the paper
  // finds one Cloudflare /48 serving 3.94 M domains).
  const double u = unit_from_hash(hash_combine(domain_id, cfg_.seed));
  auto pi = static_cast<std::size_t>(u * u * static_cast<double>(cfg_.prefixes.size()));
  if (pi >= cfg_.prefixes.size()) pi = cfg_.prefixes.size() - 1;
  Prefix unit = cfg_.prefixes[pi];
  const std::uint32_t sparse = sparse_count_at(d);
  if (sparse > 0)
    unit = sparse_unit(pi, static_cast<std::uint32_t>(
                               hash_combine(domain_id, 0xD0) % sparse));
  // CDN resolutions rotate between scans.
  return unit.random_address(
      hash_combine(domain_id, static_cast<std::uint64_t>(d.index)));
}

std::optional<Ipv6> AliasedRegion::infra_address(std::uint64_t infra_id,
                                                 ScanDate d) const {
  return domain_address(hash_combine(infra_id, 0x175a), d);
}

std::vector<Prefix> AliasedRegion::truth_aliased_units(ScanDate d) const {
  std::vector<Prefix> out;
  if (d.index < cfg_.appears) return out;
  if (cfg_.sparse64_count == 0) return cfg_.prefixes;
  const std::uint32_t n = sparse_count_at(d);
  for (std::size_t pi = 0; pi < cfg_.prefixes.size(); ++pi)
    for (std::uint32_t j = 0; j < n; ++j) out.push_back(sparse_unit(pi, j));
  return out;
}

}  // namespace sixdust
