#pragma once

#include <vector>

#include "netbase/hash.hpp"
#include "topo/deployment.hpp"

namespace sixdust {

/// A network behind the Great Firewall. Almost no address answers probes
/// directly — the hitlist only "sees" these networks because (a) Yarrp
/// traceroutes record rotating last-hop router addresses inside them and
/// (b) the GFW injects DNS answers for probes crossing the border
/// (Sec. 4.2). A small set of genuinely responsive hosts exists too: the
/// paper notes some injection-affected targets also answer other protocols
/// and must stay in the hitlist.
class CensoredNetwork final : public Deployment {
 public:
  struct Config {
    Asn asn = kAsnNone;
    Prefix prefix;
    std::uint32_t real_hosts = 20;       // genuinely responsive servers
    double real_tcp80_frac = 0.5;
    /// Physical border routers. Traceroutes toward targets hashing onto the
    /// same router observe the same (per-scan rotating) address, bounding
    /// how many new addresses leak into the input per scan.
    std::uint32_t router_count = 32;
    std::uint16_t known_tags = kSrcDnsAaaa;
    std::uint8_t path_len = 18;
    std::uint64_t seed = 4;
  };

  explicit CensoredNetwork(Config cfg);

  [[nodiscard]] Asn asn() const override { return cfg_.asn; }
  [[nodiscard]] const std::vector<Prefix>& prefixes() const override {
    return prefixes_;
  }

  [[nodiscard]] std::optional<HostBehavior> host(const Ipv6& a,
                                                 ScanDate d) const override;

  void enumerate_known(ScanDate d, std::vector<KnownAddress>& out) const override;

  /// Rotating border-router address observed as the last responsive hop of
  /// a traceroute toward `target` during scan `d`. A fresh interface ID per
  /// (scan, target) — this feedback loop is what pumped 134 M addresses
  /// into the hitlist input.
  [[nodiscard]] Ipv6 border_router(const Ipv6& target,
                                   ScanDate d) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  [[nodiscard]] Ipv6 real_host_address(std::uint32_t i) const;

  Config cfg_;
  std::vector<Prefix> prefixes_;
  std::vector<Ipv6> real_hosts_sorted_;  // real_host_address(i), sorted
};

}  // namespace sixdust
