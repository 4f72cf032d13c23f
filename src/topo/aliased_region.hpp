#pragma once

#include <shared_mutex>
#include <unordered_map>

#include "netbase/prefix_set.hpp"
#include "topo/deployment.hpp"

namespace sixdust {

/// How the machines behind a fully-responsive prefix are organized. The
/// paper's Sec. 5.1 fingerprinting distinguishes these cases:
///  - SingleHost: a true alias — one machine, one PMTU cache, one TCP
///    fingerprint (93.75 % of TBT-usable prefixes).
///  - LoadBalanced: a CDN fleet; addresses hash onto k machines, so only
///    subsets share a PMTU cache (the Akamai/Cloudflare partial results).
///  - MultiHost: independent machines per address (0.85 % of prefixes; TCP
///    window size varies).
enum class AliasMode : std::uint8_t { SingleHost, LoadBalanced, MultiHost };

/// A fully-responsive ("aliased") address region: every address inside the
/// aliased units answers. Units are either the configured prefixes as a
/// whole, or — when `sparse64_count` > 0 — a scattered set of active /64s
/// inside them (the Amazon / Trafficforce pattern where only /64s that
/// carry traffic respond).
class AliasedRegion final : public Deployment {
 public:
  struct Config {
    Asn asn = kAsnNone;
    std::vector<Prefix> prefixes;
    AliasMode mode = AliasMode::SingleHost;
    std::uint32_t lb_partitions = 8;
    ProtoMask protos =
        proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
        proto_bit(Proto::Tcp443);
    /// Active /64s per configured prefix; 0 = whole prefix responsive.
    std::uint32_t sparse64_count = 0;
    /// New /64s activated per scan (input-visible growth over the years).
    std::uint32_t sparse64_growth = 0;
    double domain_share = 0.0;
    /// Fresh DNS/CT-visible addresses emitted per scan (CDN answer churn).
    std::uint32_t known_per_scan = 0;
    /// When set, every aliased unit (prefix or active /64) additionally
    /// exposes one stable address per scan — guaranteeing the hitlist input
    /// contains at least one address per unit (what makes the multi-level
    /// detection test that /64 at all).
    bool known_cover_units = false;
    std::uint16_t known_tags = kSrcDnsAaaa | kSrcCtLog;
    int appears = 0;
    std::uint8_t path_len = 6;
    std::uint64_t seed = 3;
    DnsServerKind dns = DnsServerKind::ErrorStatus;
    /// Whether the machines honour ICMPv6 Packet Too Big (lower their PMTU
    /// and fragment). Middleboxes that drop PTB make the Too Big Trick
    /// unusable — the paper could only evaluate 29.4 k of 111 k prefixes.
    bool honors_ptb = true;
  };

  explicit AliasedRegion(Config cfg);

  [[nodiscard]] Asn asn() const override { return cfg_.asn; }
  [[nodiscard]] const std::vector<Prefix>& prefixes() const override {
    return cfg_.prefixes;
  }
  [[nodiscard]] int appears_at() const override { return cfg_.appears; }

  [[nodiscard]] std::optional<HostBehavior> host(const Ipv6& a,
                                                 ScanDate d) const override;

  void enumerate_known(ScanDate d, std::vector<KnownAddress>& out) const override;

  [[nodiscard]] double domain_weight() const override {
    return cfg_.domain_share;
  }
  [[nodiscard]] bool fully_responsive() const override { return true; }
  [[nodiscard]] std::optional<Ipv6> domain_address(std::uint64_t domain_id,
                                                   ScanDate d) const override;
  [[nodiscard]] std::optional<Ipv6> infra_address(std::uint64_t infra_id,
                                                  ScanDate d) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Ground truth: the aliased units active at `d` — whole prefixes, or the
  /// active /64s when sparse (test/bench hook).
  [[nodiscard]] std::vector<Prefix> truth_aliased_units(ScanDate d) const;

 private:
  [[nodiscard]] std::uint32_t sparse_count_at(ScanDate d) const;
  [[nodiscard]] Prefix sparse_unit(std::size_t prefix_idx,
                                   std::uint32_t j) const;
  /// The aliased unit containing `a` (whole prefix or active /64).
  [[nodiscard]] std::optional<Prefix> unit_of(const Ipv6& a, ScanDate d) const;

  /// Extend the lazy active-/64 lookup to cover `want` units and test
  /// whether `a`'s /64 is one of the first `want` units of prefix `pi` —
  /// thread-safe (host() runs concurrently on the parallel scan path; the
  /// cache grows append-only under a writer lock and stores unit indices,
  /// so its answers do not depend on which dates were probed before).
  [[nodiscard]] bool sparse_member(std::size_t pi, const Ipv6& a,
                                   std::uint32_t want) const;

  Config cfg_;
  PrefixSet coverage_;
  // Lazily built lookup per configured prefix: active /64 base word ->
  // smallest unit index j that produces it.
  mutable std::shared_mutex sparse_mutex_;
  mutable std::vector<std::unordered_map<std::uint64_t, std::uint32_t>>
      sparse_units_;
  mutable std::uint32_t sparse_built_for_ = 0;
};

}  // namespace sixdust
