#include "topo/isp_pool.hpp"

#include <algorithm>
#include <cmath>

#include "netbase/hash.hpp"

namespace sixdust {

IspPool::IspPool(Config cfg) : cfg_(cfg) {
  prefixes_.push_back(cfg_.prefix);
  subnet_space_mask_ = cfg_.subnet_bits >= 32
                           ? ~std::uint32_t{0}
                           : (std::uint32_t{1} << cfg_.subnet_bits) - 1;
}

std::uint32_t IspPool::mac_index(std::uint32_t subnet) const {
  // Skewed draw: with mac_skew > 1 a few fleet MACs dominate — producing
  // the paper's observation of one EUI-64 value in 240 k addresses.
  const double u =
      unit_from_hash(hash_combine(cfg_.seed ^ 0xAC, subnet));
  const double skewed = std::pow(u, cfg_.mac_skew);
  auto idx = static_cast<std::uint32_t>(skewed * cfg_.mac_pool);
  return idx >= cfg_.mac_pool ? cfg_.mac_pool - 1 : idx;
}

Ipv6 IspPool::cpe_address(std::uint32_t s) const {
  const Ipv6 net =
      cfg_.prefix.base().with_field(cfg_.prefix.len(), cfg_.subnet_bits, s);
  const std::uint32_t mi = mac_index(s);
  Mac mac;
  mac.bytes[0] = static_cast<std::uint8_t>(cfg_.oui >> 16);
  mac.bytes[1] = static_cast<std::uint8_t>(cfg_.oui >> 8);
  mac.bytes[2] = static_cast<std::uint8_t>(cfg_.oui);
  mac.bytes[3] = static_cast<std::uint8_t>(mi >> 16);
  mac.bytes[4] = static_cast<std::uint8_t>(mi >> 8);
  mac.bytes[5] = static_cast<std::uint8_t>(mi);
  return apply_eui64(net, mac);
}

std::optional<std::uint32_t> IspPool::subnet_of(const Ipv6& a) const {
  if (!cfg_.prefix.contains(a)) return std::nullopt;
  // Bits between the subnet field and the IID must be zero.
  const int gap = cfg_.prefix.len() + cfg_.subnet_bits;
  if (gap < 64 && a.field(gap, 64 - gap) != 0) return std::nullopt;
  // Every CPE IID is EUI-64 with the pool's OUI: check that before the MAC
  // draw (cpe_address) is worth computing.
  const auto mac = eui64_mac(a);
  if (!mac || mac->oui() != (cfg_.oui & 0xFFFFFF)) return std::nullopt;
  const auto s = static_cast<std::uint32_t>(
      a.field(cfg_.prefix.len(), cfg_.subnet_bits));
  // The address must be exactly this subnet's CPE (EUI-64 from its MAC).
  if (cpe_address(s) != a) return std::nullopt;
  return s;
}

namespace {

// Flag bits of an activity word (the subnet sits above them).
constexpr std::uint64_t kActiveNow = 1;
constexpr std::uint64_t kActiveBefore = 2;

}  // namespace

std::uint32_t IspPool::active_draw(int epoch, std::uint32_t j) const {
  return static_cast<std::uint32_t>(
      hash_combine(hash_combine(cfg_.seed, 0xAC71F),
                   (static_cast<std::uint64_t>(epoch) << 32) | j) &
      subnet_space_mask_);
}

std::vector<std::uint64_t> IspPool::build_activity(int epoch) const {
  std::vector<std::uint64_t> words;
  for (std::uint32_t j = 0; j < cfg_.active_per_scan; ++j)
    words.push_back(std::uint64_t{active_draw(epoch, j)} << 2 | kActiveNow);
  if (cfg_.reactivation > 0) {
    for (int pe = 0; pe < epoch; ++pe)
      for (std::uint32_t j = 0; j < cfg_.active_per_scan; ++j)
        words.push_back(std::uint64_t{active_draw(pe, j)} << 2 | kActiveBefore);
  }
  // One word per subnet, carrying the union of its flags.
  std::sort(words.begin(), words.end());
  std::size_t out = 0;
  for (const std::uint64_t w : words) {
    if (out > 0 && words[out - 1] >> 2 == w >> 2)
      words[out - 1] |= w;
    else
      words[out++] = w;
  }
  words.resize(out);
  words.shrink_to_fit();
  return words;
}

const std::vector<std::uint64_t>& IspPool::activity(int epoch) const {
  return activity_.get(static_cast<std::uint64_t>(epoch),
                       [&] { return build_activity(epoch); });
}

std::optional<HostBehavior> IspPool::host(const Ipv6& a, ScanDate d) const {
  // Scans are numbered from 0: there is no epoch before the first one.
  if (d.index < cfg_.appears || d.index < 0) return std::nullopt;
  auto s = subnet_of(a);
  if (!s) return std::nullopt;
  const int e = epoch(d);
  const auto& words = activity(e);
  const auto it =
      std::lower_bound(words.begin(), words.end(), std::uint64_t{*s} << 2);
  const std::uint64_t flags =
      it != words.end() && *it >> 2 == *s ? *it & 3 : 0;
  bool live = (flags & kActiveNow) != 0;
  if (!live && (flags & kActiveBefore) != 0) {
    // An address from an earlier epoch can come back online when the ISP
    // re-assigns the prefix — this is what the paper's re-scan of the
    // 30-day-unresponsive pool finds (1.2 M addresses responsive again).
    live = unit_from_hash(hash_combine(
               hash_combine(cfg_.seed ^ 0x5EAC7, *s),
               static_cast<std::uint64_t>(e))) < cfg_.reactivation;
  }
  if (!live) return std::nullopt;
  HostBehavior b;
  b.key = hash_combine(cfg_.seed, *s);
  b.path_len = cfg_.path_len;
  b.responsive = proto_bit(Proto::Icmp);
  bool tcp = false;
  const bool t80 = unit_from_hash(hash_combine(b.key, 80)) < cfg_.tcp80_frac;
  if (t80) {
    b.responsive |= proto_bit(Proto::Tcp80);
    tcp = true;
  }
  // CPE HTTPS UIs are a subset of the HTTP ones (Fig. 10 overlap).
  const double p443 =
      t80 ? (cfg_.tcp80_frac > 0 ? 0.9 * cfg_.tcp443_frac / cfg_.tcp80_frac
                                 : 0.0)
          : 0.1 * cfg_.tcp443_frac;
  if (unit_from_hash(hash_combine(b.key, 443)) < p443) {
    b.responsive |= proto_bit(Proto::Tcp443);
    tcp = true;
  }
  if (tcp)
    b.tcp = TcpFeatures{"MSTNW", 14600, 2, 1400, 64};  // embedded Linux CPE
  if (unit_from_hash(hash_combine(b.key, 53)) < cfg_.udp53_frac) {
    b.responsive |= proto_bit(Proto::Udp53);
    b.dns = DnsServerKind::ErrorStatus;  // forwarder refusing our probe
  }
  if (unit_from_hash(hash_combine(b.key, 4430)) < cfg_.udp443_frac)
    b.responsive |= proto_bit(Proto::Udp443);
  b.can_fragment = true;
  return b;
}

void IspPool::enumerate_known(ScanDate d,
                              std::vector<KnownAddress>& out) const {
  if (d.index < cfg_.appears || d.index < 0) return;
  // Atlas-style traceroutes observe every currently active CPE, in subnet
  // order (delivery order feeds InputDb insertion order).
  for (const std::uint64_t w : activity(epoch(d)))
    if ((w & kActiveNow) != 0)
      out.push_back(KnownAddress{cpe_address(static_cast<std::uint32_t>(w >> 2)),
                                 cfg_.known_tags});
  // ... plus a larger set of transient CPEs that answered at some point
  // during the scan window but have rotated away by probing time.
  const std::uint32_t extra = cfg_.discovered_per_scan > cfg_.active_per_scan
                                  ? cfg_.discovered_per_scan - cfg_.active_per_scan
                                  : 0;
  for (std::uint32_t j = 0; j < extra; ++j) {
    const auto s = static_cast<std::uint32_t>(
        hash_combine(hash_combine(cfg_.seed, 0xD15C),
                     (static_cast<std::uint64_t>(d.index) << 32) | j) &
        subnet_space_mask_);
    out.push_back(KnownAddress{cpe_address(s), cfg_.known_tags});
  }
}

}  // namespace sixdust
