#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asdb/geo.hpp"
#include "asdb/registry.hpp"
#include "asdb/rib.hpp"
#include "netbase/frozen_lpm.hpp"
#include "proto/icmp6.hpp"
#include "proto/quic.hpp"
#include "topo/deployment.hpp"
#include "topo/gfw.hpp"

namespace sixdust {

/// The simulated Internet as seen from the measurement vantage point (a
/// German university network, like the paper's). Measurement code may only
/// use the probe surface; ground-truth accessors are clearly marked and
/// reserved for tests and bench calibration.
///
/// The world is almost entirely a pure function of (address, date, seed):
/// every probe computes the host behind its target directly from the
/// covering deployment. The two deliberate pieces of mutable state are the
/// per-host PMTU caches (the side channel exploited by the Too Big Trick)
/// and the log of our controlled name server (the Sec. 4.2 validation
/// experiment). There is no lazy memo behind a lock: the deployment tables
/// that are built on first use (`IspPool`'s per-epoch activity columns,
/// `AliasedRegion`'s active /64s per date) are immutable once published
/// through write-once slots, and each is a pure function of its epoch or
/// date, so a probe on date d answers the same whichever dates were probed
/// before.
///
/// Thread-safety contract (see DESIGN.md, "Concurrency model"): the const
/// probe surface — answers, answers_in, icmp_echo, tcp_syn, dns_query,
/// quic_probe, probe, path_to, truth_host — may be called concurrently,
/// also with different ScanDates in flight. Probe results are pure functions of
/// (address, date, seed), so interleaving never changes what a probe
/// observes. The side-channel state is internally guarded: the PMTU caches
/// by a reader/writer lock that probes skip until the first Packet Too Big
/// has been delivered, the name-server log by a mutex. Two order-sensitive
/// side channels remain deterministic only under single-threaded use,
/// which their callers guarantee: PTB writes (the Too Big Trick runs its
/// own sequential probe discipline) and the ns_log_ append order (only
/// own-zone queries log, and the validation experiments issue those
/// sequentially — the scan path queries a foreign name). Accessors that
/// *reset* observer state (clear_nameserver_log, reset_pmtu) must not race
/// with probes.
class World {
 public:
  /// A transit network's routers (the RIB maps the prefix to its AS).
  struct TransitAs {
    Prefix router_prefix;
    std::uint32_t router_count = 64;
  };

  World(AsRegistry registry, Rib rib, Gfw gfw,
        std::vector<std::unique_ptr<Deployment>> deployments,
        std::vector<TransitAs> transits, std::uint64_t seed);

  // --- Probe surface ------------------------------------------------------

  /// The protocols the host at `target` answers on `d`: one deployment
  /// lookup and one host computation. Bit p is set exactly when the probe
  /// for p finds the host (icmp_echo, tcp_syn to 80/443, quic_probe); the
  /// UDP/53 bit covers the host only — GFW injections, which answer for
  /// absent hosts too, come from dns_query alone.
  [[nodiscard]] ProtoMask answers(const Ipv6& target, ScanDate d) const;

  /// answers() for targets inside one prefix, with the deployment lookup
  /// paid once for the whole prefix (see answers_in()).
  class PrefixAnswers {
   public:
    /// answers(target, d) for a `target` inside the prefix.
    [[nodiscard]] ProtoMask operator()(const Ipv6& target, ScanDate d) const {
      return whole_ ? host_answers(dep_, target, d)
                    : world_->answers(target, d);
    }

   private:
    friend class World;
    PrefixAnswers(const World* world, const Deployment* dep, bool whole)
        : world_(world), dep_(dep), whole_(whole) {}
    const World* world_;
    const Deployment* dep_;  // behind every address of the prefix (whole_)
    bool whole_;
  };

  /// Resolve the deployment behind `p` once: every address of `p` then
  /// pays only the host computation. A prefix that straddles a deployment
  /// boundary (a BGP prefix holding a more-specific deployment, say)
  /// resolves each target on its own, so the result always equals
  /// answers(target, d).
  [[nodiscard]] PrefixAnswers answers_in(const Prefix& p) const;

  [[nodiscard]] std::optional<IcmpEchoReply> icmp_echo(const Ipv6& target,
                                                       IcmpEchoRequest req,
                                                       ScanDate d) const;

  /// Deliver an ICMPv6 Packet Too Big to `target`, updating the PMTU cache
  /// of the machine behind it (if it exists and honours PTB).
  void icmp_packet_too_big(const Ipv6& target, IcmpPacketTooBig ptb,
                           ScanDate d) const;

  [[nodiscard]] std::optional<TcpSynAck> tcp_syn(const Ipv6& target,
                                                 std::uint16_t port,
                                                 ScanDate d) const;

  /// UDP/53 query. May return several messages: the GFW races 2-3 injected
  /// answers against (possibly absent) real ones.
  [[nodiscard]] std::vector<DnsMessage> dns_query(const Ipv6& target,
                                                  const DnsQuestion& q,
                                                  ScanDate d) const;

  [[nodiscard]] std::optional<QuicReply> quic_probe(const Ipv6& target,
                                                    ScanDate d) const;

  /// ZMap-style binary outcome: did *any* response arrive for this proto?
  /// (For UDP/53 this includes GFW injections — exactly the bug the paper
  /// fixes downstream.)
  [[nodiscard]] bool probe(const Ipv6& target, Proto p, ScanDate d) const;

  struct Hop {
    Ipv6 addr;
    bool responds = false;
  };

  /// A router-level path: the campus gateway, up to two transit routers,
  /// the destination's border router and the target, so at most kMaxHops
  /// entries, held inline.
  class Path {
   public:
    static constexpr std::size_t kMaxHops = 5;

    void push(const Hop& h) { hops_[size_++] = h; }
    [[nodiscard]] std::span<const Hop> hops() const& {
      return {hops_.data(), size_};
    }
    // A span into a temporary path would dangle.
    std::span<const Hop> hops() const&& = delete;

   private:
    std::array<Hop, kMaxHops> hops_{};
    std::size_t size_ = 0;
  };

  /// Router-level path from the vantage point toward `target`. The final
  /// entry is the target itself (responds == reachable via ICMP).
  [[nodiscard]] Path path_to(const Ipv6& target, ScanDate d) const;

  /// Addresses visible in public data sources on `d` (all deployments).
  void enumerate_known(ScanDate d, std::vector<KnownAddress>& out) const;

  // --- Controlled-zone validation experiment -------------------------------

  /// Zone under our control; recursive resolvers hitting it are observable
  /// on "our name server" via nameserver_log().
  static constexpr std::string_view kOwnZone = "probe.sixdust.example";

  /// The AAAA record our authoritative server returns for a name in our
  /// zone (deterministic in the name).
  [[nodiscard]] static Ipv6 own_zone_answer(std::string_view qname);

  struct NsLogEntry {
    std::string qname;
    Ipv6 source;
  };
  [[nodiscard]] const std::vector<NsLogEntry>& nameserver_log() const {
    return ns_log_;
  }
  // PMTU caches and the NS log are logically observer-side state of the
  // mutable-by-design side channels; resetting them does not change the
  // world itself, hence const.
  void clear_nameserver_log() const {
    std::lock_guard lk(ns_log_mutex_);
    ns_log_.clear();
  }
  void reset_pmtu() const {
    std::unique_lock lk(pmtu_mutex_);
    pmtu_.clear();
    pmtu_used_.store(false, std::memory_order_release);
  }

  // --- Context ------------------------------------------------------------

  [[nodiscard]] const Rib& rib() const { return rib_; }
  [[nodiscard]] const AsRegistry& registry() const { return registry_; }
  [[nodiscard]] const Gfw& gfw() const { return gfw_; }
  [[nodiscard]] const GeoDb& geo() const { return geo_; }

  /// Is `target` inside a censored (GFW-fronted) network?
  [[nodiscard]] bool behind_gfw(const Ipv6& target) const;

  // --- Ground-truth hooks (tests / bench calibration only) ----------------

  [[nodiscard]] const std::vector<std::unique_ptr<Deployment>>& deployments()
      const {
    return deployments_;
  }
  [[nodiscard]] const Deployment* deployment_of(const Ipv6& a) const;
  [[nodiscard]] std::optional<HostBehavior> truth_host(const Ipv6& a,
                                                       ScanDate d) const;

 private:
  /// The protocols the host at `target` answers, given the deployment
  /// covering it (null: none) — the one place answers are computed.
  [[nodiscard]] static ProtoMask host_answers(const Deployment* dep,
                                              const Ipv6& target, ScanDate d) {
    if (dep == nullptr) return ProtoMask{0};
    const auto h = dep->host(target, d);
    return h ? h->responsive : ProtoMask{0};
  }

  AsRegistry registry_;
  Rib rib_;
  Gfw gfw_;
  GeoDb geo_;
  std::vector<std::unique_ptr<Deployment>> deployments_;
  std::vector<TransitAs> transits_;
  std::uint64_t seed_;
  /// Deployment index by covering prefix — built in the constructor
  /// (deployments never change after world build), so deployment_of() is
  /// one binary search on every probe path.
  FrozenLpm<std::size_t> by_prefix_;
  // sixdust-lint: allow(topo-mutable) — PMTU side channel (Too Big Trick)
  mutable std::shared_mutex pmtu_mutex_;
  // sixdust-lint: allow(topo-mutable) — PMTU side channel (Too Big Trick)
  mutable std::unordered_map<HostKey, std::uint16_t> pmtu_;
  /// Set once a Packet Too Big reached a host: until then every PMTU is
  /// the default and icmp_echo skips the lock.
  // sixdust-lint: allow(topo-mutable) — PMTU side channel (Too Big Trick)
  mutable std::atomic<bool> pmtu_used_{false};
  // sixdust-lint: allow(topo-mutable) — name-server log (Sec. 4.2 validation)
  mutable std::mutex ns_log_mutex_;
  // sixdust-lint: allow(topo-mutable) — name-server log (Sec. 4.2 validation)
  mutable std::vector<NsLogEntry> ns_log_;
};

}  // namespace sixdust
