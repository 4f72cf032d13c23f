#pragma once

#include <vector>

#include "core/write_once_slots.hpp"
#include "netbase/eui64.hpp"
#include "topo/deployment.hpp"

namespace sixdust {

/// An eyeball ISP: a pool of customer subnets whose prefixes rotate over
/// time, with CPE devices that derive their interface ID from a small,
/// shared fleet of MAC addresses (EUI-64). This reproduces the paper's
/// Sec. 4.1 findings: 282 M input addresses with EUI-64 IIDs derived from
/// only 22.7 M MACs, the most frequent EUI-64 visible in 240 k addresses
/// (ZTE OUI, one /32, many subnets), and the resulting input-list bias of
/// ASes like ANTEL and DTAG.
class IspPool final : public Deployment {
 public:
  struct Config {
    Asn asn = kAsnNone;
    Prefix prefix;                  // ISP block, e.g. a /32
    int subnet_bits = 24;           // customer subnets at /56
    std::uint32_t active_per_scan = 100;      // CPEs answering right now
    std::uint32_t discovered_per_scan = 400;  // CPEs seen by Atlas that month
    std::uint32_t mac_pool = 2000;  // distinct CPE MAC addresses
    std::uint32_t oui = kOuiZte;
    double mac_skew = 1.0;          // >1 concentrates on few MACs
    int rotation_scans = 2;         // prefix-rotation epoch length
    // CPE service mix: mostly ICMP-only, some web UIs / DNS forwarders /
    // home servers. Because the population rotates, these drive the large
    // cumulative-vs-snapshot gap of the TCP/UDP columns in Table 1.
    double tcp80_frac = 0.15;
    double tcp443_frac = 0.10;
    double udp53_frac = 0.01;
    double udp443_frac = 0.04;
    double reactivation = 0.0;      // chance an old epoch's subnet is live
                                    // again (drives re-responsive pool, T4)
    std::uint16_t known_tags = kSrcRipeAtlas;
    int appears = 0;
    std::uint8_t path_len = 12;
    std::uint64_t seed = 2;
  };

  explicit IspPool(Config cfg);

  [[nodiscard]] Asn asn() const override { return cfg_.asn; }
  [[nodiscard]] const std::vector<Prefix>& prefixes() const override {
    return prefixes_;
  }
  [[nodiscard]] int appears_at() const override { return cfg_.appears; }

  [[nodiscard]] std::optional<HostBehavior> host(const Ipv6& a,
                                                 ScanDate d) const override;

  void enumerate_known(ScanDate d, std::vector<KnownAddress>& out) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// CPE address of subnet `s` (ground truth / test hook).
  [[nodiscard]] Ipv6 cpe_address(std::uint32_t s) const;

 private:
  [[nodiscard]] int epoch(ScanDate d) const {
    return d.index / cfg_.rotation_scans;
  }
  /// Activity of rotation epoch `epoch`: every subnet active in it or (when
  /// reactivation is on) in an earlier epoch, one `subnet << 2 | flags` word
  /// each, sorted by subnet. Built from the epoch's own draws and those of
  /// the epochs before it on first use, and published through a write-once
  /// slot, so host() does one binary search and takes no lock.
  [[nodiscard]] const std::vector<std::uint64_t>& activity(int epoch) const;
  [[nodiscard]] std::vector<std::uint64_t> build_activity(int epoch) const;
  /// Subnet of the j-th active-CPE draw of `epoch` (duplicates possible).
  [[nodiscard]] std::uint32_t active_draw(int epoch, std::uint32_t j) const;
  [[nodiscard]] std::uint32_t mac_index(std::uint32_t subnet) const;
  [[nodiscard]] std::optional<std::uint32_t> subnet_of(const Ipv6& a) const;

  Config cfg_;
  std::vector<Prefix> prefixes_;
  std::uint32_t subnet_space_mask_;
  // sixdust-lint: allow(topo-mutable) — write-once epoch table slots
  mutable WriteOnceSlots<std::vector<std::uint64_t>> activity_;
};

}  // namespace sixdust
