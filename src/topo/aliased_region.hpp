#pragma once

#include <vector>

#include "core/write_once_slots.hpp"
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

  /// Active /64 base words of each configured prefix on `d` (the first
  /// sparse_count_at(d) units), sorted and unique. Built on first use per
  /// date and published through a write-once slot: probes take no lock,
  /// and an answer never depends on which dates were probed before.
  using SparseTable = std::vector<std::vector<std::uint64_t>>;
  [[nodiscard]] const SparseTable& sparse_table(ScanDate d) const;

  Config cfg_;
  PrefixSet coverage_;
  // One table per date since the region appeared (a single one when the
  // active set does not grow).
  // sixdust-lint: allow(topo-mutable) — write-once sparse /64 table slots
  mutable WriteOnceSlots<SparseTable> sparse_tables_;
};

}  // namespace sixdust
