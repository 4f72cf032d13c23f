#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asdb/asn.hpp"
#include "netbase/hash.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "netbase/util.hpp"
#include "topo/behavior.hpp"

namespace sixdust {

/// A deployment is one operator's footprint in the simulated Internet: the
/// prefixes it announces plus a procedural description of the hosts inside
/// them. Deployments answer membership/behaviour queries as pure functions
/// of (address, date, seed) — the world never materializes the address
/// space, just like the real Internet only reveals itself to probes.
class Deployment {
 public:
  virtual ~Deployment() = default;

  [[nodiscard]] virtual Asn asn() const = 0;
  [[nodiscard]] virtual const std::vector<Prefix>& prefixes() const = 0;

  /// First scan at which this deployment exists (Trafficforce appears in
  /// Feb 2022 only, for instance).
  [[nodiscard]] virtual int appears_at() const { return 0; }

  /// Ground-truth host behaviour at `a` on `d`; nullopt when no host
  /// answers at that address.
  [[nodiscard]] virtual std::optional<HostBehavior> host(const Ipv6& a,
                                                         ScanDate d) const = 0;

  /// Border-router address that a traceroute toward `target` observes as
  /// the hop before it during scan `d`. By default one stable router per
  /// /48, addressed inside the first announced prefix.
  [[nodiscard]] virtual Ipv6 border_router(const Ipv6& target,
                                           ScanDate d) const {
    (void)d;
    return prefixes().front().random_address(
        hash_combine(hash_of(Prefix::mask(target, 48)), 0xB02D));
  }

  /// Addresses visible in public data sources on `d` (DNS resolutions, CT
  /// logs, Atlas traceroutes, ...). Appends to `out`.
  virtual void enumerate_known(ScanDate d, std::vector<KnownAddress>& out) const {
    (void)d;
    (void)out;
  }

  /// Share of the domain universe hosted here (0 = hosts no domains).
  [[nodiscard]] virtual double domain_weight() const { return 0.0; }

  /// True for fully-responsive ("aliased") regions — ground truth used by
  /// the zone database to bias popular domains toward CDNs.
  [[nodiscard]] virtual bool fully_responsive() const { return false; }

  /// Web-facing address serving domain `domain_id` on `d` (AAAA record
  /// target). CDNs return rotating per-resolution addresses inside their
  /// fully-responsive prefixes.
  [[nodiscard]] virtual std::optional<Ipv6> domain_address(
      std::uint64_t domain_id, ScanDate d) const {
    (void)domain_id;
    (void)d;
    return std::nullopt;
  }

  /// Infrastructure address (name server / mail exchanger) for `infra_id`.
  [[nodiscard]] virtual std::optional<Ipv6> infra_address(
      std::uint64_t infra_id, ScanDate d) const {
    (void)infra_id;
    (void)d;
    return std::nullopt;
  }
};

}  // namespace sixdust
