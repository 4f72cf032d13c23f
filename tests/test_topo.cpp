// Tests for the topo module: deployment membership/behaviour inverses,
// aliased regions, ISP pools with rotating EUI-64 CPEs, censored networks,
// GFW injection, path model, and the PMTU-cache side channel.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <span>

#include "core/parallel.hpp"
#include "core/thread_pool.hpp"
#include "netbase/hash.hpp"
#include "topo/aliased_region.hpp"
#include "topo/censored_network.hpp"
#include "topo/isp_pool.hpp"
#include "topo/server_farm.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

// ---------------------------------------------------------------- ServerFarm

ServerFarm::Config small_farm() {
  ServerFarm::Config cfg;
  cfg.asn = 65001;
  cfg.prefix = pfx("2001:db8::/32");
  cfg.subnet_bits = 8;
  cfg.subnets = 4;
  cfg.hosts_per_subnet = 8;
  cfg.stable_frac = 1.0;  // deterministic for membership tests
  cfg.seed = 99;
  return cfg;
}

TEST(ServerFarm, HostAddressesAreMembers) {
  ServerFarm farm(small_farm());
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      const Ipv6 a = farm.host_address(s, i);
      EXPECT_TRUE(farm.host(a, ScanDate{0}).has_value())
          << a.str() << " s=" << s << " i=" << i;
    }
  }
}

TEST(ServerFarm, NonHostAddressesRejected) {
  ServerFarm farm(small_farm());
  const ScanDate d{0};
  EXPECT_FALSE(farm.host(ip("2001:db8::"), d).has_value());      // IID 0
  EXPECT_FALSE(farm.host(ip("2001:db8::9"), d).has_value());     // IID > max
  EXPECT_FALSE(farm.host(ip("2001:db8:500::1"), d).has_value()); // subnet > max
  EXPECT_FALSE(farm.host(ip("2001:db9::1"), d).has_value());     // outside
  EXPECT_FALSE(farm.host(ip("2001:db8:1:1::1"), d).has_value()); // middle bits
}

TEST(ServerFarm, StrideControlsIidSpacing) {
  auto cfg = small_farm();
  cfg.iid_stride = 8;
  ServerFarm farm(cfg);
  EXPECT_TRUE(farm.host(ip("2001:db8::1"), ScanDate{0}).has_value());
  EXPECT_TRUE(farm.host(ip("2001:db8::9"), ScanDate{0}).has_value());
  EXPECT_FALSE(farm.host(ip("2001:db8::2"), ScanDate{0}).has_value());
  EXPECT_EQ(farm.host_address(0, 1), ip("2001:db8::9"));
}

TEST(ServerFarm, GrowthAddsSubnetsOverTime) {
  auto cfg = small_farm();
  cfg.growth_subnets_per_scan = 2;
  ServerFarm farm(cfg);
  EXPECT_EQ(farm.subnet_count(ScanDate{0}), 4u);
  EXPECT_EQ(farm.subnet_count(ScanDate{10}), 24u);
  const Ipv6 later = farm.host_address(20, 0);
  EXPECT_FALSE(farm.host(later, ScanDate{0}).has_value());
  EXPECT_TRUE(farm.host(later, ScanDate{10}).has_value());
}

TEST(ServerFarm, AppearsGatesExistence) {
  auto cfg = small_farm();
  cfg.appears = 5;
  ServerFarm farm(cfg);
  EXPECT_FALSE(farm.host(farm.host_address(0, 0), ScanDate{4}).has_value());
  EXPECT_TRUE(farm.host(farm.host_address(0, 0), ScanDate{5}).has_value());
}

TEST(ServerFarm, EnumerationRespectsKnownFraction) {
  auto cfg = small_farm();
  cfg.subnets = 64;
  cfg.known_frac = 0.5;
  ServerFarm farm(cfg);
  std::vector<KnownAddress> known;
  farm.enumerate_known(ScanDate{0}, known);
  const double frac = static_cast<double>(known.size()) / (64.0 * 8.0);
  EXPECT_GT(frac, 0.4);
  EXPECT_LT(frac, 0.6);
  for (const auto& k : known)
    EXPECT_TRUE(farm.host(k.addr, ScanDate{0}).has_value());
}

TEST(ServerFarm, FlakyHostsChurnStableOnesDoNot) {
  auto cfg = small_farm();
  cfg.subnets = 64;
  cfg.stable_frac = 0.3;
  cfg.flaky_up = 0.5;
  ServerFarm farm(cfg);
  std::size_t always = 0;
  std::size_t sometimes = 0;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      const Ipv6 a = farm.host_address(s, i);
      int up = 0;
      for (int t = 0; t < 20; ++t)
        if (farm.host(a, ScanDate{t})) ++up;
      if (up == 20) {
        ++always;
      } else if (up > 0) {
        ++sometimes;
      }
    }
  }
  EXPECT_GT(always, 90u);   // ~30 % of 512
  EXPECT_LT(always, 220u);
  EXPECT_GT(sometimes, 200u);
}

TEST(ServerFarm, DomainAddressesResolveToHosts) {
  auto cfg = small_farm();
  cfg.domain_share = 0.1;
  ServerFarm farm(cfg);
  for (std::uint64_t id = 0; id < 50; ++id) {
    auto a = farm.domain_address(id, ScanDate{0});
    ASSERT_TRUE(a.has_value());
    EXPECT_TRUE(cfg.prefix.contains(*a));
    // The web server behind a domain is a real (possibly flaky) host slot.
    const Ipv6 host_slot = *a;
    bool is_slot = false;
    for (std::uint32_t s = 0; s < cfg.subnets && !is_slot; ++s)
      for (std::uint32_t i = 0; i < cfg.hosts_per_subnet && !is_slot; ++i)
        if (farm.host_address(s, i) == host_slot) is_slot = true;
    EXPECT_TRUE(is_slot);
  }
}

// ------------------------------------------------------------------ IspPool

IspPool::Config small_pool() {
  IspPool::Config cfg;
  cfg.asn = 65002;
  cfg.prefix = pfx("2800:a000::/32");
  cfg.subnet_bits = 20;
  cfg.active_per_scan = 50;
  cfg.discovered_per_scan = 150;
  cfg.mac_pool = 40;
  cfg.oui = kOuiZte;
  cfg.rotation_scans = 2;
  cfg.seed = 7;
  return cfg;
}

TEST(IspPool, ActiveCpesRespondWithEui64Addresses) {
  IspPool pool(small_pool());
  std::vector<KnownAddress> known;
  pool.enumerate_known(ScanDate{0}, known);
  ASSERT_GE(known.size(), 50u);
  std::size_t responsive = 0;
  for (const auto& k : known) {
    EXPECT_TRUE(has_eui64_iid(k.addr)) << k.addr.str();
    auto mac = eui64_mac(k.addr);
    ASSERT_TRUE(mac.has_value());
    EXPECT_EQ(mac->oui(), kOuiZte);
    if (pool.host(k.addr, ScanDate{0})) ++responsive;
  }
  // All active CPEs are enumerated, transients are not responsive.
  EXPECT_GE(responsive, 45u);
  EXPECT_LT(responsive, known.size());
}

TEST(IspPool, PrefixRotationChangesActiveSet) {
  IspPool pool(small_pool());
  std::vector<KnownAddress> e0;
  std::vector<KnownAddress> e2;
  pool.enumerate_known(ScanDate{0}, e0);
  pool.enumerate_known(ScanDate{2}, e2);  // next rotation epoch
  std::size_t live_later = 0;
  for (const auto& k : e0)
    if (pool.host(k.addr, ScanDate{2})) ++live_later;
  // Nearly all epoch-0 addresses are gone after rotation (no reactivation).
  EXPECT_LT(live_later, 5u);
}

TEST(IspPool, ReactivationRevivesOldAddresses) {
  auto cfg = small_pool();
  cfg.reactivation = 0.5;
  IspPool pool(cfg);
  std::vector<KnownAddress> e0;
  pool.enumerate_known(ScanDate{0}, e0);
  std::size_t revived = 0;
  std::size_t active0 = 0;
  for (const auto& k : e0) {
    if (!pool.host(k.addr, ScanDate{0})) continue;
    ++active0;
    if (pool.host(k.addr, ScanDate{4})) ++revived;
  }
  ASSERT_GT(active0, 0u);
  EXPECT_GT(revived, active0 / 5);
  EXPECT_LT(revived, active0 * 4 / 5);
}

TEST(IspPool, MacFleetIsShared) {
  IspPool pool(small_pool());
  std::set<std::uint64_t> macs;
  std::size_t addrs = 0;
  for (int epoch = 0; epoch < 6; epoch += 2) {
    std::vector<KnownAddress> known;
    pool.enumerate_known(ScanDate{epoch}, known);
    for (const auto& k : known) {
      ++addrs;
      macs.insert(eui64_mac(k.addr)->value());
    }
  }
  EXPECT_LE(macs.size(), 40u);     // bounded by the fleet
  EXPECT_GT(addrs, macs.size() * 2);  // heavy reuse across prefixes
}

// ---------------------------------------------------- IspPool epoch tables

/// The per-epoch set loop IspPool answered with before its activity
/// columns: one set of active subnets per epoch, and for a subnet that is
/// not active now, a walk over every earlier epoch's set.
class EpochLoopReference {
 public:
  explicit EpochLoopReference(const IspPool::Config& cfg) : cfg_(cfg) {}

  [[nodiscard]] std::set<std::uint32_t> active_set(int epoch) const {
    const std::uint32_t mask = (std::uint32_t{1} << cfg_.subnet_bits) - 1;
    std::set<std::uint32_t> set;
    for (std::uint32_t j = 0; j < cfg_.active_per_scan; ++j)
      set.insert(static_cast<std::uint32_t>(
          hash_combine(hash_combine(cfg_.seed, 0xAC71F),
                       (static_cast<std::uint64_t>(epoch) << 32) | j) &
          mask));
    return set;
  }

  /// Is subnet `s` live on `d`? `sets` caches active_set(0..epoch).
  [[nodiscard]] bool live(std::uint32_t s, ScanDate d,
                          std::vector<std::set<std::uint32_t>>& sets) const {
    if (d.index < cfg_.appears) return false;
    const int e = d.index / cfg_.rotation_scans;
    while (static_cast<int>(sets.size()) <= e)
      sets.push_back(active_set(static_cast<int>(sets.size())));
    bool live = sets[static_cast<std::size_t>(e)].contains(s);
    if (!live && cfg_.reactivation > 0 && e > 0) {
      for (int pe = 0; pe < e && !live; ++pe) {
        if (!sets[static_cast<std::size_t>(pe)].contains(s)) continue;
        live = unit_from_hash(hash_combine(
                   hash_combine(cfg_.seed ^ 0x5EAC7, s),
                   static_cast<std::uint64_t>(e))) < cfg_.reactivation;
      }
    }
    return live;
  }

 private:
  IspPool::Config cfg_;
};

/// A pool whose small subnet space makes epochs overlap, so subnets are
/// re-drawn and reactivated often.
IspPool::Config churny_pool(double reactivation) {
  IspPool::Config cfg = small_pool();
  cfg.subnet_bits = 9;
  cfg.active_per_scan = 24;
  cfg.rotation_scans = 1;
  cfg.reactivation = reactivation;
  return cfg;
}

constexpr int kTableEpochs = 71;  // epochs 0..70

/// Liveness of every subnet of the pool's space on every date, from the
/// reference loop, at date * subnets + subnet.
std::vector<std::uint8_t> reference_liveness(const IspPool::Config& cfg) {
  const EpochLoopReference ref(cfg);
  std::vector<std::set<std::uint32_t>> sets;
  const std::uint32_t subnets = std::uint32_t{1} << cfg.subnet_bits;
  std::vector<std::uint8_t> live(kTableEpochs * subnets);
  for (int d = 0; d < kTableEpochs; ++d)
    for (std::uint32_t s = 0; s < subnets; ++s)
      live[static_cast<std::size_t>(d) * subnets + s] =
          ref.live(s, ScanDate{d}, sets) ? 1 : 0;
  return live;
}

TEST(IspPoolTables, MatchEpochLoopReference) {
  for (const double reactivation : {0.0, 0.3}) {
    const IspPool::Config cfg = churny_pool(reactivation);
    const auto want = reference_liveness(cfg);
    const std::uint32_t subnets = std::uint32_t{1} << cfg.subnet_bits;
    // Dates probed in reverse, then interleaved from both ends, each on a
    // fresh pool: no table may depend on which epochs were built first.
    std::vector<int> reverse(kTableEpochs);
    for (int i = 0; i < kTableEpochs; ++i)
      reverse[static_cast<std::size_t>(i)] = kTableEpochs - 1 - i;
    std::vector<int> interleaved;
    for (int lo = 0, hi = kTableEpochs - 1; lo <= hi; ++lo, --hi) {
      interleaved.push_back(lo);
      if (hi != lo) interleaved.push_back(hi);
    }
    for (const auto& order : {reverse, interleaved}) {
      const IspPool pool(cfg);
      std::size_t live = 0;
      for (const int d : order) {
        for (std::uint32_t s = 0; s < subnets; ++s) {
          const bool got =
              pool.host(pool.cpe_address(s), ScanDate{d}).has_value();
          EXPECT_EQ(got, want[static_cast<std::size_t>(d) * subnets + s] != 0)
              << "subnet " << s << " date " << d << " reactivation "
              << reactivation;
          live += got ? 1 : 0;
        }
      }
      EXPECT_GT(live, 0u);
    }
    // The enumerated active CPEs are the reference's active set, in
    // subnet order.
    const IspPool pool(cfg);
    const EpochLoopReference ref(cfg);
    for (const int d : {0, 35, 70}) {
      std::vector<KnownAddress> known;
      pool.enumerate_known(ScanDate{d}, known);
      const auto active = ref.active_set(d);
      ASSERT_GE(known.size(), active.size());
      std::size_t i = 0;
      for (const std::uint32_t s : active)
        EXPECT_EQ(known[i++].addr, pool.cpe_address(s)) << "date " << d;
    }
  }
}

TEST(IspPoolTables, FarEpochNeedsNoEarlierTables) {
  // A date far past any timeline is answered on its own (the earlier
  // epochs are drawn directly) and agrees with the reference loop.
  const IspPool::Config cfg = churny_pool(0.3);
  const EpochLoopReference ref(cfg);
  std::vector<std::set<std::uint32_t>> sets;
  const IspPool pool(cfg);
  const std::uint32_t subnets = std::uint32_t{1} << cfg.subnet_bits;
  for (const int d : {4000, 4001, 250}) {
    std::size_t live = 0;
    for (std::uint32_t s = 0; s < subnets; ++s) {
      const bool got = pool.host(pool.cpe_address(s), ScanDate{d}).has_value();
      EXPECT_EQ(got, ref.live(s, ScanDate{d}, sets)) << "subnet " << s;
      live += got ? 1 : 0;
    }
    EXPECT_GT(live, 0u);
  }
}

TEST(IspPoolTables, ConcurrentProbesMatchReference) {
  // Eight threads build and read the epoch tables at once, each chunk
  // walking the dates in its own order (the tsan-concurrency preset runs
  // this test).
  const IspPool::Config cfg = churny_pool(0.3);
  const auto want = reference_liveness(cfg);
  const std::uint32_t subnets = std::uint32_t{1} << cfg.subnet_bits;
  const IspPool pool(cfg);
  ThreadPool threads(8);
  std::atomic<std::size_t> differ{0};
  parallel_for(
      &threads, subnets, 32,
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        std::size_t local = 0;
        for (int k = 0; k < kTableEpochs; ++k) {
          const int d =
              chunk % 2 == 0
                  ? kTableEpochs - 1 - k
                  : static_cast<int>((chunk + 7 * static_cast<std::size_t>(k)) %
                                     kTableEpochs);
          for (std::size_t s = lo; s < hi; ++s) {
            const bool got =
                pool.host(pool.cpe_address(static_cast<std::uint32_t>(s)),
                          ScanDate{d})
                    .has_value();
            if (got != (want[static_cast<std::size_t>(d) * subnets + s] != 0))
              ++local;
          }
        }
        differ.fetch_add(local, std::memory_order_relaxed);
      });
  EXPECT_EQ(differ.load(std::memory_order_relaxed), 0u);
}

// ------------------------------------------------------------- AliasedRegion

TEST(AliasedRegion, WholePrefixRespondsEverywhere) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2606:4700:1::/48")};
  cfg.mode = AliasMode::SingleHost;
  cfg.seed = 5;
  AliasedRegion region(cfg);
  const ScanDate d{0};
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    const Ipv6 a = cfg.prefixes[0].random_address(salt);
    auto h = region.host(a, d);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(mask_has(h->responsive, Proto::Icmp));
  }
  EXPECT_FALSE(region.host(ip("2606:4700:2::1"), d).has_value());
}

TEST(AliasedRegion, SingleHostSharesOneKey) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2606:4700:1::/48")};
  cfg.mode = AliasMode::SingleHost;
  AliasedRegion region(cfg);
  std::set<HostKey> keys;
  for (std::uint64_t salt = 0; salt < 32; ++salt)
    keys.insert(
        region.host(cfg.prefixes[0].random_address(salt), ScanDate{0})->key);
  EXPECT_EQ(keys.size(), 1u);
}

TEST(AliasedRegion, LoadBalancedPartitionsKeys) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2606:4700:1::/48")};
  cfg.mode = AliasMode::LoadBalanced;
  cfg.lb_partitions = 4;
  AliasedRegion region(cfg);
  std::set<HostKey> keys;
  for (std::uint64_t salt = 0; salt < 200; ++salt)
    keys.insert(
        region.host(cfg.prefixes[0].random_address(salt), ScanDate{0})->key);
  EXPECT_EQ(keys.size(), 4u);
}

TEST(AliasedRegion, MultiHostVariesKeysAndWindow) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2606:4700:1::/48")};
  cfg.mode = AliasMode::MultiHost;
  AliasedRegion region(cfg);
  std::set<HostKey> keys;
  std::set<std::uint16_t> windows;
  for (std::uint64_t salt = 0; salt < 50; ++salt) {
    auto h = region.host(cfg.prefixes[0].random_address(salt), ScanDate{0});
    keys.insert(h->key);
    windows.insert(h->tcp.window);
  }
  EXPECT_GT(keys.size(), 40u);
  EXPECT_GT(windows.size(), 10u);
}

TEST(AliasedRegion, SparseOnlyActiveSlash64sRespond) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2600:1f00::/24")};
  cfg.sparse64_count = 10;
  cfg.seed = 17;
  AliasedRegion region(cfg);
  const ScanDate d{0};
  const auto units = region.truth_aliased_units(d);
  ASSERT_EQ(units.size(), 10u);
  for (const auto& unit : units) {
    EXPECT_EQ(unit.len(), 64);
    EXPECT_TRUE(region.host(unit.random_address(1), d).has_value());
  }
  // A random /64 inside the big prefix is almost surely inactive.
  EXPECT_FALSE(
      region.host(ip("2600:1f42:1234:5678::1"), d).has_value());
}

TEST(AliasedRegion, SparseGrowthActivatesMoreUnits) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2600:1f00::/24")};
  cfg.sparse64_count = 5;
  cfg.sparse64_growth = 3;
  AliasedRegion region(cfg);
  EXPECT_EQ(region.truth_aliased_units(ScanDate{0}).size(), 5u);
  EXPECT_EQ(region.truth_aliased_units(ScanDate{4}).size(), 17u);
  // Old units stay active.
  const auto early = region.truth_aliased_units(ScanDate{0});
  for (const auto& u : early)
    EXPECT_TRUE(region.host(u.random_address(9), ScanDate{4}).has_value());
}

TEST(AliasedRegion, SparseMembershipIgnoresLaterDatesProbedFirst) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2600:1f00::/40")};
  cfg.sparse64_count = 4;
  cfg.sparse64_growth = 4;
  AliasedRegion probed(cfg);
  const auto units = probed.truth_aliased_units(ScanDate{40});
  ASSERT_EQ(units.size(), 164u);
  const auto members = [&](const AliasedRegion& region, ScanDate d) {
    std::size_t n = 0;
    for (const auto& u : units)
      if (region.host(u.random_address(5), d).has_value()) ++n;
    return n;
  };
  EXPECT_EQ(members(probed, ScanDate{40}), 164u);
  // Date 40 built the lookup for all 164 units; date 0 has only 4.
  EXPECT_EQ(members(probed, ScanDate{0}), 4u);
  EXPECT_EQ(members(AliasedRegion(cfg), ScanDate{0}), 4u);
}

TEST(AliasedRegion, HonorsPtbFlagPropagates) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2a0d:5600::/48")};
  cfg.honors_ptb = false;
  AliasedRegion region(cfg);
  auto h = region.host(cfg.prefixes[0].random_address(3), ScanDate{0});
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(h->can_fragment);
}

// ----------------------------------------------------------- CensoredNetwork

TEST(CensoredNetwork, OnlyRealHostsRespond) {
  CensoredNetwork::Config cfg;
  cfg.asn = 4134;
  cfg.prefix = pfx("240e::/24");
  cfg.real_hosts = 10;
  cfg.seed = 23;
  CensoredNetwork net(cfg);
  std::vector<KnownAddress> known;
  net.enumerate_known(ScanDate{0}, known);
  ASSERT_EQ(known.size(), 10u);
  int up = 0;
  for (const auto& k : known)
    if (net.host(k.addr, ScanDate{0})) ++up;
  EXPECT_GE(up, 7);  // availability churn allows a few misses
  EXPECT_FALSE(net.host(cfg.prefix.random_address(0xdead), ScanDate{0}));
}

TEST(CensoredNetwork, BorderRoutersRotatePerScanAndAreBounded) {
  CensoredNetwork::Config cfg;
  cfg.asn = 4134;
  cfg.prefix = pfx("240e::/24");
  cfg.router_count = 8;
  cfg.seed = 23;
  CensoredNetwork net(cfg);
  std::set<Ipv6> scan0;
  std::set<Ipv6> scan1;
  for (std::uint64_t t = 0; t < 500; ++t) {
    const Ipv6 target = cfg.prefix.random_address(t);
    scan0.insert(net.border_router(target, ScanDate{0}));
    scan1.insert(net.border_router(target, ScanDate{1}));
  }
  EXPECT_LE(scan0.size(), 8u);  // bounded by physical routers
  EXPECT_GE(scan0.size(), 6u);
  for (const auto& r : scan0) EXPECT_FALSE(scan1.contains(r)) << "no rotation";
}

// ----------------------------------------------------------- AddressKernels
// The deployment codecs built on Ipv6::field/with_field and bit_reverse64,
// checked against the per-bit loops they replaced (kept here as
// references) on subnet fields that end before bit 64, at it and across it.

Ipv6 ref_set_field(Ipv6 a, int pos, int width, std::uint32_t v) {
  for (int b = 0; b < width; ++b)
    a.set_bit(pos + b, (v >> (width - 1 - b)) & 1);
  return a;
}

std::uint32_t ref_get_field(const Ipv6& a, int pos, int width) {
  std::uint32_t v = 0;
  for (int b = 0; b < width; ++b)
    v = v << 1 | static_cast<std::uint32_t>(a.bit(pos + b));
  return v;
}

bool ref_gap_clear(const Ipv6& a, int from) {
  for (int b = from; b < 64; ++b)
    if (a.bit(b)) return false;
  return true;
}

/// Probe addresses around `a`: `a` itself, every one-bit flip of it, and
/// the same lo word under a different hi word.
std::vector<Ipv6> near_misses(const Ipv6& a) {
  std::vector<Ipv6> out{a};
  for (int b = 0; b < 128; ++b) {
    Ipv6 f = a;
    f.set_bit(b, !a.bit(b));
    out.push_back(f);
  }
  out.push_back(Ipv6::from_words(a.hi() ^ 0x100, a.lo()));
  return out;
}

struct FieldLayout {
  const char* prefix;
  int subnet_bits;
};

// Subnet field [32, 52), [40, 64) and [48, 72).
constexpr FieldLayout kLayouts[] = {
    {"2800:a000::/32", 20}, {"2800:a000:1200::/40", 24},
    {"2800:a000:1234::/48", 24}};

TEST(AddressKernels, IspPoolCodecMatchesPerBitLoops) {
  for (const auto& layout : kLayouts) {
    IspPool::Config cfg = small_pool();
    cfg.prefix = pfx(layout.prefix);
    cfg.subnet_bits = layout.subnet_bits;
    cfg.active_per_scan = 400;
    IspPool pool(cfg);
    const int len = cfg.prefix.len();
    const auto ref_subnet_of =
        [&](const Ipv6& a) -> std::optional<std::uint32_t> {
      if (!cfg.prefix.contains(a)) return std::nullopt;
      const std::uint32_t s = ref_get_field(a, len, cfg.subnet_bits);
      if (!ref_gap_clear(a, len + cfg.subnet_bits)) return std::nullopt;
      if (pool.cpe_address(s) != a) return std::nullopt;
      return s;
    };
    std::vector<Ipv6> probes;
    for (std::uint32_t k = 0; k < 200; ++k) {
      const auto s = static_cast<std::uint32_t>(
          mix64(k) & ((std::uint32_t{1} << cfg.subnet_bits) - 1));
      const Ipv6 cpe = pool.cpe_address(s);
      // The subnet field (in the hi word) comes from the per-bit loop; the
      // IID is EUI-64 with the pool's OUI.
      ASSERT_EQ(cpe.hi(), ref_set_field(cfg.prefix.base(), len,
                                        cfg.subnet_bits, s).hi());
      ASSERT_EQ(eui64_mac(cpe)->oui(), cfg.oui);
      for (const Ipv6& a : near_misses(cpe)) probes.push_back(a);
    }
    // With discovered_per_scan below active_per_scan, every enumerated
    // address is an active CPE.
    std::vector<KnownAddress> known;
    pool.enumerate_known(ScanDate{0}, known);
    for (const auto& k : known) probes.push_back(k.addr);
    for (const Ipv6& a : probes) {
      const auto h = pool.host(a, ScanDate{0});
      if (!h) continue;
      const auto s = ref_subnet_of(a);
      ASSERT_TRUE(s.has_value()) << a.str();
      EXPECT_EQ(h->key, hash_combine(cfg.seed, *s)) << a.str();
    }
    // A field that crosses bit 64 loses its low bits to the EUI-64 IID, so
    // only the other layouts decode their own CPE addresses.
    if (len + cfg.subnet_bits <= 64) {
      for (const auto& k : known)
        EXPECT_TRUE(pool.host(k.addr, ScanDate{0}).has_value()) << k.addr.str();
    }
  }
}

TEST(AddressKernels, ServerFarmCodecMatchesPerBitLoops) {
  for (const auto& layout : kLayouts) {
    ServerFarm::Config cfg = small_farm();
    cfg.prefix = pfx(layout.prefix);
    cfg.subnet_bits = layout.subnet_bits;
    cfg.subnets = 40;
    ServerFarm farm(cfg);
    const int len = cfg.prefix.len();
    std::size_t live = 0;
    for (std::uint32_t s = 0; s < 48; ++s) {
      for (std::uint32_t i = 0; i < cfg.hosts_per_subnet; ++i) {
        const Ipv6 want = Ipv6::from_words(
            ref_set_field(cfg.prefix.base(), len, cfg.subnet_bits, s).hi(),
            1 + static_cast<std::uint64_t>(i) * cfg.iid_stride);
        ASSERT_EQ(farm.host_address(s, i), want);
        for (const Ipv6& a : near_misses(want)) {
          const auto h = farm.host(a, ScanDate{0});
          // Reference decode of the old locate().
          const std::uint32_t rs = ref_get_field(a, len, cfg.subnet_bits);
          const bool ok = cfg.prefix.contains(a) && rs < cfg.subnets &&
                          ref_gap_clear(a, len + cfg.subnet_bits) &&
                          a.lo() >= 1 && a.lo() - 1 < cfg.hosts_per_subnet;
          ASSERT_EQ(h.has_value(), ok) << a.str();
          if (!h) continue;
          const std::uint64_t host_id =
              hash_combine(hash_combine(cfg.seed, rs), a.lo() - 1);
          EXPECT_EQ(h->key, hash_combine(host_id, 0x605717)) << a.str();
          ++live;
        }
      }
    }
    EXPECT_GT(live, 40u * cfg.hosts_per_subnet) << layout.prefix;
  }
}

TEST(AddressKernels, SparseUnitsMatchPerBitLoop) {
  AliasedRegion::Config cfg;
  cfg.asn = 65003;
  cfg.prefixes = {pfx("2600:1f00::/24"), pfx("2600:1f80::/40"),
                  pfx("2600:1f90::/63"), pfx("2600:1fa0::/64")};
  cfg.sparse64_count = 16;
  cfg.seed = 17;
  AliasedRegion region(cfg);
  std::vector<Prefix> want;
  for (std::size_t pi = 0; pi < cfg.prefixes.size(); ++pi) {
    for (std::uint32_t j = 0; j < cfg.sparse64_count; ++j) {
      const Prefix& p = cfg.prefixes[pi];
      const std::uint64_t h = hash_combine(hash_combine(cfg.seed, pi), j);
      Ipv6 base = p.base();
      for (int b = p.len(); b < 64; ++b) base.set_bit(b, (h >> (b & 63)) & 1);
      want.push_back(Prefix::make(base, 64));
    }
  }
  EXPECT_EQ(region.truth_aliased_units(ScanDate{0}), want);
}

TEST(AddressKernels, CensoredNetworkAnswersOnlyItsRealHosts) {
  CensoredNetwork::Config cfg;
  cfg.asn = 4134;
  cfg.prefix = pfx("240e::/24");
  cfg.real_hosts = 64;
  cfg.seed = 23;
  CensoredNetwork net(cfg);
  std::vector<KnownAddress> known;
  net.enumerate_known(ScanDate{0}, known);
  ASSERT_EQ(known.size(), 64u);
  std::set<Ipv6> real;
  for (const auto& k : known) real.insert(k.addr);
  std::size_t up = 0;
  for (const auto& k : known) {
    for (const Ipv6& a : near_misses(k.addr)) {
      for (int d = 0; d < 3; ++d) {
        const auto h = net.host(a, ScanDate{d});
        if (!real.contains(a)) {
          ASSERT_FALSE(h.has_value()) << a.str();
          continue;
        }
        if (!h) continue;
        EXPECT_EQ(h->key, hash_of(a, cfg.seed));
        ++up;
      }
    }
  }
  EXPECT_GT(up, 64u * 3 * 8 / 10);  // availability churn allows misses
}

// ----------------------------------------------------------------- Gfw/World

class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = build_test_world(31).release(); }
  static void TearDownTestSuite() { delete world_; }
  static const World* world_;
};

const World* WorldTest::world_ = nullptr;

Ipv6 censored_target(const World&) {
  return pfx("240e::/24").random_address(0x61);  // China Telecom BB block
}

TEST_F(WorldTest, GfwInjectsForBlockedDomainsDuringEvents) {
  const Ipv6 target = censored_target(*world_);
  ASSERT_TRUE(world_->behind_gfw(target));
  const DnsQuestion q{"www.google.com", RrType::AAAA};
  // Event 3 (Teredo era): scan 35.
  const auto during = world_->dns_query(target, q, ScanDate{35});
  ASSERT_GE(during.size(), 2u);  // multiple injectors
  bool teredo = false;
  for (const auto& m : during)
    for (const auto& rr : m.answers)
      if (const auto* v6 = std::get_if<Ipv6>(&rr.rdata))
        if (is_teredo(*v6)) teredo = true;
  EXPECT_TRUE(teredo);
  // Between events: silence.
  EXPECT_TRUE(world_->dns_query(target, q, ScanDate{15}).empty());
}

TEST_F(WorldTest, GfwAEraInjectsARecords) {
  const Ipv6 target = censored_target(*world_);
  const auto responses = world_->dns_query(
      target, DnsQuestion{"www.google.com", RrType::AAAA}, ScanDate{9});
  ASSERT_FALSE(responses.empty());
  bool a_record = false;
  for (const auto& m : responses)
    for (const auto& rr : m.answers)
      if (rr.type == RrType::A) a_record = true;
  EXPECT_TRUE(a_record);
}

TEST_F(WorldTest, GfwIgnoresUnblockedDomains) {
  const Ipv6 target = censored_target(*world_);
  EXPECT_TRUE(world_
                  ->dns_query(target, DnsQuestion{"example.com", RrType::AAAA},
                              ScanDate{35})
                  .empty());
}

TEST_F(WorldTest, GfwDoesNotAffectUncensoredTargets) {
  const Ipv6 target = ip("2600:3c00:42::9999");  // Linode, no host there
  EXPECT_TRUE(world_
                  ->dns_query(target,
                              DnsQuestion{"www.google.com", RrType::AAAA},
                              ScanDate{35})
                  .empty());
}

TEST_F(WorldTest, WrongIpv4sBelongToUnrelatedOperators) {
  for (std::uint64_t h = 0; h < 100; ++h) {
    const std::uint32_t v = Gfw::wrong_ipv4(h).value >> 16;
    EXPECT_TRUE(v == 0x9DF0 || v == 0x0D6B || v == 0xA27D) << std::hex << v;
  }
}

TEST_F(WorldTest, PathEndsAtTargetAndLeaksCensoredRouters) {
  const Ipv6 target = censored_target(*world_);
  const World::Path p0 = world_->path_to(target, ScanDate{0});
  const std::span<const World::Hop> path0 = p0.hops();
  ASSERT_GE(path0.size(), 3u);
  ASSERT_LE(path0.size(), World::Path::kMaxHops);
  EXPECT_EQ(path0.back().addr, target);
  EXPECT_FALSE(path0.back().responds);  // no host at this address
  // The last responsive hop sits inside the censored network...
  const auto& border = path0[path0.size() - 2];
  EXPECT_TRUE(border.responds);
  EXPECT_TRUE(pfx("240e::/24").contains(border.addr));
  // ...and rotates between scans.
  const World::Path p1 = world_->path_to(target, ScanDate{1});
  const std::span<const World::Hop> path1 = p1.hops();
  EXPECT_NE(path1[path1.size() - 2].addr, border.addr);
}

TEST_F(WorldTest, PmtuCacheDrivesFragmentation) {
  // Pick an aliased (fully responsive) address: the Fastly /32.
  const Ipv6 a = pfx("2a04:4e40::/32").random_address(77);
  const ScanDate d{0};
  auto first = world_->icmp_echo(a, IcmpEchoRequest{1300}, d);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->fragmented);
  world_->icmp_packet_too_big(a, IcmpPacketTooBig{1280}, d);
  auto second = world_->icmp_echo(a, IcmpEchoRequest{1300}, d);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->fragmented);
  // Small packets still pass unfragmented.
  auto small = world_->icmp_echo(a, IcmpEchoRequest{800}, d);
  EXPECT_FALSE(small->fragmented);
  world_->reset_pmtu();
  auto after_reset = world_->icmp_echo(a, IcmpEchoRequest{1300}, d);
  EXPECT_FALSE(after_reset->fragmented);
}

TEST(WorldPurity, SparseRegionAnswersDoNotDependOnProbeHistory) {
  // Probe the paper-scale world's sparse aliased units at a late date,
  // then at date 0: the answers must match a world never probed before.
  const auto probed = build_world(WorldConfig{});
  const auto fresh = build_world(WorldConfig{});
  std::vector<Ipv6> targets;
  for (const auto& dep : probed->deployments()) {
    const auto* region = dynamic_cast<const AliasedRegion*>(dep.get());
    if (region == nullptr || region->config().sparse64_count == 0) continue;
    for (const auto& u : region->truth_aliased_units(ScanDate{45}))
      targets.push_back(u.random_address(11));
  }
  ASSERT_GT(targets.size(), 1000u);
  for (const auto& a : targets)
    (void)probed->probe(a, Proto::Icmp, ScanDate{45});
  std::size_t differ = 0;
  for (const auto& a : targets)
    if (probed->probe(a, Proto::Icmp, ScanDate{0}) !=
        fresh->probe(a, Proto::Icmp, ScanDate{0}))
      ++differ;
  EXPECT_EQ(differ, 0u) << "of " << targets.size();
}

TEST(WorldAnswers, MatchPerProtocolProbes) {
  const auto world = build_test_world(29);
  const DnsQuestion q{"www.google.com", RrType::AAAA};
  std::size_t checked = 0;
  std::array<std::size_t, kProtoCount> set_bits{};
  for (int d = 0; d < 14; ++d) {
    const ScanDate date{d};
    // Known addresses (the answering population) plus random addresses in
    // every deployment prefix (mostly silent, some aliased).
    std::vector<KnownAddress> known;
    world->enumerate_known(date, known);
    std::vector<Ipv6> addrs;
    for (std::size_t i = 0; i < known.size(); i += 3)
      addrs.push_back(known[i].addr);
    for (const auto& dep : world->deployments())
      for (const auto& p : dep->prefixes())
        for (std::uint64_t k = 0; k < 4; ++k)
          addrs.push_back(p.random_address(
              hash_combine(0xA45, k + 16 * static_cast<std::uint64_t>(d))));
    for (const Ipv6& a : addrs) {
      const ProtoMask m = world->answers(a, date);
      ASSERT_EQ(mask_has(m, Proto::Icmp),
                world->icmp_echo(a, IcmpEchoRequest{}, date).has_value())
          << a.str() << " date " << d;
      ASSERT_EQ(mask_has(m, Proto::Tcp80),
                world->tcp_syn(a, 80, date).has_value());
      ASSERT_EQ(mask_has(m, Proto::Tcp443),
                world->tcp_syn(a, 443, date).has_value());
      ASSERT_EQ(mask_has(m, Proto::Udp443),
                world->quic_probe(a, date).has_value());
      // UDP/53: the host's own answer, never a GFW injection.
      const auto h = world->truth_host(a, date);
      ASSERT_EQ(mask_has(m, Proto::Udp53),
                h.has_value() && mask_has(h->responsive, Proto::Udp53));
      if (!world->behind_gfw(a)) {
        ASSERT_EQ(mask_has(m, Proto::Udp53),
                  !world->dns_query(a, q, date).empty());
      }
      for (Proto p : kAllProtos)
        if (mask_has(m, p))
          ++set_bits[static_cast<std::size_t>(proto_index(p))];
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
  for (Proto p : kAllProtos)
    EXPECT_GT(set_bits[static_cast<std::size_t>(proto_index(p))], 0u)
        << proto_name(p);
}

TEST_F(WorldTest, RibAndRegistryAreConsistent) {
  EXPECT_GT(world_->rib().prefix_count(), 100u);
  EXPECT_GT(world_->rib().as_count(), 50u);
  const auto origin = world_->rib().origin(ip("2a04:4e40::1"));
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(*origin, kAsFastly);
  EXPECT_EQ(world_->registry().label(kAsFastly), "Fastly (AS54113)");
  EXPECT_EQ(world_->geo().country(censored_target(*world_)), "CN");
}

}  // namespace
}  // namespace sixdust
