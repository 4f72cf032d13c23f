#include "topo/world_builder.hpp"

#include <algorithm>

#include "netbase/hash.hpp"
#include "topo/aliased_region.hpp"
#include "topo/censored_network.hpp"
#include "topo/isp_pool.hpp"
#include "topo/server_farm.hpp"

namespace sixdust {
namespace {

/// Scaled count: never below 1.
std::uint32_t sc(double scale, double v) {
  const double s = v * scale;
  return s < 1.0 ? 1u : static_cast<std::uint32_t>(s + 0.5);
}

struct Builder {
  explicit Builder(const WorldConfig& c) : cfg(c) {}

  const WorldConfig& cfg;
  AsRegistry registry = AsRegistry::well_known();
  std::vector<Rib::Route> routes;
  std::vector<std::unique_ptr<Deployment>> deps;
  std::vector<World::TransitAs> transits;

  [[nodiscard]] std::uint32_t n(double v) const { return sc(cfg.scale, v); }

  void announce_all(const Deployment& d) {
    for (const auto& p : d.prefixes()) routes.push_back({p, d.asn()});
  }

  template <typename D, typename C>
  D* add(C dcfg) {
    auto dep = std::make_unique<D>(std::move(dcfg));
    D* raw = dep.get();
    announce_all(*raw);
    deps.push_back(std::move(dep));
    return raw;
  }

  // ---- eyeball ISPs (input bias, EUI-64 churn, Sec. 4.1) -----------------

  void add_isp(Asn asn, const char* prefix, std::uint32_t active,
               std::uint32_t discovered, std::uint32_t macs,
               std::uint32_t oui, double skew, double reactivation) {
    IspPool::Config c;
    c.asn = asn;
    c.prefix = pfx(prefix);
    c.subnet_bits = 24;
    c.active_per_scan = n(active);
    c.discovered_per_scan = n(discovered);
    c.mac_pool = n(macs);
    c.mac_skew = skew;
    c.oui = oui;
    c.rotation_scans = 1;  // monthly prefix rotation
    c.reactivation = reactivation;
    c.seed = hash_combine(cfg.seed, asn);
    add<IspPool>(c);
  }

  void add_isps() {
    // The ten eyeball ISPs covering ~80 % of the alias-filtered input
    // (paper Fig. 2: ANTEL 16 %, DTAG 10 %, ...). Their Atlas-visible CPE
    // discovery rates produce the 282 M EUI-64 input addresses from a
    // ~23 k MAC fleet; the strong ANTEL skew yields the one EUI-64 value
    // visible in 240 k addresses (ZTE OUI).
    add_isp(kAsAntel, "2800:a000::/32", 130, 1350, 8000, kOuiZte, 1.8, 0.0);
    add_isp(kAsDtag, "2003::/32", 90, 900, 6000, kOuiAvm, 1.3, 0.0);
    add_isp(kAsVnpt, "2405:4800::/32", 60, 780, 3000, kOuiHuawei, 1.1,
            0.2);  // reactivation drives the re-responsive pool (Table 4)
    add_isp(kAsOrange, "2a01:c000::/32", 70, 660, 2000, kOuiAvm, 1.1, 0.05);
    add_isp(kAsComcast, "2601::/32", 70, 660, 2000, kOuiCisco, 1.1, 0.05);
    add_isp(kAsTelefonica, "2a02:9000::/32", 50, 510, 1500, kOuiHuawei, 1.1,
            0.1);
    add_isp(kAsTurkTelekom, "2a02:a400::/32", 45, 450, 1200, kOuiZte, 1.1,
            0.1);
    add_isp(kAsKddi, "2400:4000::/32", 45, 450, 1200, kOuiCisco, 1.1, 0.05);
    add_isp(kAsDeutscheGlasfaser, "2a00:6020::/32", 40, 420, 2500, kOuiAvm,
            1.1, 0.15);
    add_isp(kAsArnes, "2001:1470::/32", 25, 180, 1500, kOuiCisco, 1.1, 0.1);
  }

  // ---- hosting / dense server providers (responsive core, TGA targets) ---

  void add_farms() {
    ServerFarm::Config linode;
    linode.asn = kAsLinode;
    linode.prefix = pfx("2600:3c00::/32");
    linode.subnet_bits = 12;
    linode.subnets = n(26);
    linode.hosts_per_subnet = 5;
    linode.growth_subnets_per_scan = cfg.scale >= 0.5 ? 1 : 0;
    linode.tcp80_frac = 0.55;
    linode.tcp443_frac = 0.5;
    linode.udp53_frac = 0.06;
    linode.udp443_frac = 0.08;
    linode.known_frac = 0.9;
    linode.domain_share = 0.06;
    linode.seed = hash_combine(cfg.seed, kAsLinode);
    add<ServerFarm>(linode);

    // Free SAS: the dense, patterned address plan that 6Graph/6Tree extend
    // so successfully (52 % of their hits). Mostly invisible to the
    // hitlist's passive sources.
    ServerFarm::Config freesas;
    freesas.asn = kAsFreeSas;
    freesas.prefix = pfx("2a01:e000::/32");
    freesas.subnet_bits = 12;
    freesas.subnets = n(1200);
    freesas.hosts_per_subnet = 2;
    freesas.tcp80_frac = 0.12;
    freesas.tcp443_frac = 0.1;
    freesas.udp53_frac = 0.02;
    freesas.udp443_frac = 0.05;
    freesas.known_frac = 0.07;
    freesas.domain_share = 0.01;
    freesas.seed = hash_combine(cfg.seed, kAsFreeSas);
    add<ServerFarm>(freesas);

    ServerFarm::Config docean;
    docean.asn = kAsDigitalOcean;
    docean.prefix = pfx("2604:a880::/32");
    docean.subnet_bits = 12;
    docean.subnets = n(260);
    docean.hosts_per_subnet = 2;
    docean.tcp80_frac = 0.5;
    docean.tcp443_frac = 0.45;
    docean.udp53_frac = 0.05;
    docean.udp443_frac = 0.06;
    docean.known_frac = 0.25;
    docean.domain_share = 0.04;
    docean.seed = hash_combine(cfg.seed, kAsDigitalOcean);
    add<ServerFarm>(docean);

    ServerFarm::Config homepl;
    homepl.asn = kAsHomePl;
    homepl.prefix = pfx("2a02:2f48::/32");
    homepl.subnet_bits = 10;
    homepl.subnets = n(70);
    homepl.hosts_per_subnet = 2;
    homepl.tcp80_frac = 0.7;
    homepl.tcp443_frac = 0.65;
    homepl.udp53_frac = 0.1;
    homepl.known_frac = 0.5;
    homepl.domain_share = 0.05;
    homepl.seed = hash_combine(cfg.seed, kAsHomePl);
    add<ServerFarm>(homepl);

    ServerFarm::Config cern;
    cern.asn = kAsCern;
    cern.prefix = pfx("2001:1458::/32");
    cern.subnet_bits = 10;
    cern.subnets = n(50);
    cern.hosts_per_subnet = 4;
    cern.iid_stride = 1;
    cern.tcp80_frac = 0.2;
    cern.tcp443_frac = 0.2;
    cern.udp53_frac = 0.03;
    cern.known_frac = 0.12;
    cern.seed = hash_combine(cfg.seed, kAsCern);
    add<ServerFarm>(cern);

    // Racktech: densely packed IID blocks (every 8th IID is a host) — one
    // of the regions the paper's distance clustering extends (Table 4).
    ServerFarm::Config racktech;
    racktech.asn = kAsRacktech;
    racktech.prefix = pfx("2a0d:8480::/32");
    racktech.subnet_bits = 10;
    racktech.subnets = n(3);
    racktech.hosts_per_subnet = 96;
    racktech.iid_stride = 8;
    racktech.tcp80_frac = 0.4;
    racktech.tcp443_frac = 0.35;
    racktech.known_frac = 0.25;
    racktech.seed = hash_combine(cfg.seed, kAsRacktech);
    add<ServerFarm>(racktech);

    // Free SAS dense block: same structure inside a second Free prefix —
    // the distance-clustering top hitter (14.9 % in Table 4).
    ServerFarm::Config free_dense;
    free_dense.asn = kAsFreeSas;
    free_dense.prefix = pfx("2a01:e100::/32");
    free_dense.subnet_bits = 10;
    free_dense.subnets = n(6);
    free_dense.hosts_per_subnet = 96;
    free_dense.iid_stride = 8;
    free_dense.tcp80_frac = 0.12;
    free_dense.tcp443_frac = 0.1;
    free_dense.known_frac = 0.25;
    free_dense.seed = hash_combine(cfg.seed, kAsFreeSas + 1);
    add<ServerFarm>(free_dense);
  }

  // ---- CDNs and clouds: fully-responsive ("aliased") regions -------------

  void add_cdns() {
    // Amazon: 32 % of the raw input; sparse active /64s inside one huge
    // block; 99.6 % of its input addresses fall to the alias filter.
    AliasedRegion::Config amazon;
    amazon.asn = kAsAmazon;
    amazon.prefixes = {pfx("2600:1f00::/24")};
    amazon.mode = AliasMode::SingleHost;  // one VM per active /64
    amazon.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp443);
    amazon.sparse64_count = n(780);
    amazon.sparse64_growth = cfg.scale >= 0.5 ? 32 : 1;
    amazon.known_per_scan = n(5500);
    amazon.known_cover_units = true;
    amazon.domain_share = 0.006;
    amazon.seed = hash_combine(cfg.seed, kAsAmazon);
    add<AliasedRegion>(amazon);

    // Cloudflare web edge: /48s each fully responsive; QUIC but no UDP/53.
    AliasedRegion::Config cf_web;
    cf_web.asn = kAsCloudflare;
    for (int i = 0; i < 10; ++i) {
      Ipv6 base = ip("2606:4700::");
      base.set_nibble(8, static_cast<unsigned>(i));
      cf_web.prefixes.push_back(Prefix::make(base, 48));
    }
    cf_web.mode = AliasMode::LoadBalanced;
    cf_web.lb_partitions = 8;
    cf_web.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp443);
    cf_web.known_per_scan = n(260);
    cf_web.known_cover_units = true;
    cf_web.domain_share = 0.035;  // ~3.9 M domains in one /48 (paper)
    cf_web.seed = hash_combine(cfg.seed, kAsCloudflare);
    add<AliasedRegion>(cf_web);

    // Cloudflare DNS anycast: UDP/53 responsive prefixes (and never QUIC in
    // the same prefix — Table 2's observation).
    AliasedRegion::Config cf_dns;
    cf_dns.asn = kAsCloudflare;
    cf_dns.prefixes = {pfx("2606:4700:4700::/48"), pfx("2606:4700:4701::/48"),
                       pfx("2606:4700:4702::/48"), pfx("2606:4700:4703::/48")};
    cf_dns.mode = AliasMode::SingleHost;
    cf_dns.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp53);
    cf_dns.known_per_scan = 4;
    cf_dns.known_cover_units = true;
    cf_dns.dns = DnsServerKind::Recursive;
    cf_dns.seed = hash_combine(cfg.seed, kAsCloudflare + 1);
    add<AliasedRegion>(cf_dns);

    // Cloudflare London (AS209242): 100 % of announced space aliased.
    AliasedRegion::Config cf_lon;
    cf_lon.asn = kAsCloudflareLon;
    cf_lon.prefixes = {pfx("2a06:98c0::/36")};
    cf_lon.mode = AliasMode::LoadBalanced;
    cf_lon.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp443);
    cf_lon.known_per_scan = 8;
    cf_lon.known_cover_units = true;
    cf_lon.seed = hash_combine(cfg.seed, kAsCloudflareLon);
    add<AliasedRegion>(cf_lon);

    // Fastly: one fully aliased /32 plus three announced-but-quiet /38s
    // => 95.5 % of announced addresses aliased (paper: 95.3 %).
    AliasedRegion::Config fastly;
    fastly.asn = kAsFastly;
    fastly.prefixes = {pfx("2a04:4e40::/32")};
    fastly.mode = AliasMode::LoadBalanced;
    fastly.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp443);
    fastly.known_per_scan = n(60);
    fastly.known_cover_units = true;
    fastly.domain_share = 0.005;
    fastly.seed = hash_combine(cfg.seed, kAsFastly);
    add<AliasedRegion>(fastly);
    routes.push_back({pfx("2a04:4e41::/38"), kAsFastly});
    routes.push_back({pfx("2a04:4e41:4000::/38"), kAsFastly});
    routes.push_back({pfx("2a04:4e41:8000::/38"), kAsFastly});

    // Akamai main network: the /48 that blew up 6Tree (8.3 M incremental
    // addresses), plus general edge /64s. Load-balanced — the partial-PMTU
    // TBT case.
    AliasedRegion::Config akamai;
    akamai.asn = kAsAkamai;
    akamai.prefixes = {pfx("2a02:26f0:6c00::/48"), pfx("2a02:26f0:6d00::/48"),
                       pfx("2a02:26f0:6e00::/48")};
    akamai.mode = AliasMode::LoadBalanced;
    akamai.lb_partitions = 4;
    akamai.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443);
    akamai.sparse64_count = n(40);
    akamai.sparse64_growth = cfg.scale >= 0.5 ? 1 : 0;
    akamai.known_per_scan = n(40);
    akamai.known_cover_units = true;
    akamai.domain_share = 0.004;
    akamai.seed = hash_combine(cfg.seed, kAsAkamai);
    add<AliasedRegion>(akamai);

    // Cloudflare edge /64s: the load-balanced units where the TBT observes
    // *partial* PMTU-cache sharing (paper: 268 prefixes).
    AliasedRegion::Config cf_edge;
    cf_edge.asn = kAsCloudflare;
    cf_edge.prefixes = {pfx("2606:4700:e000::/40")};
    cf_edge.mode = AliasMode::LoadBalanced;
    cf_edge.lb_partitions = 4;
    cf_edge.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                     proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp443);
    cf_edge.sparse64_count = n(27);
    cf_edge.known_per_scan = n(27);
    cf_edge.known_cover_units = true;
    cf_edge.seed = hash_combine(cfg.seed, kAsCloudflare + 2);
    add<AliasedRegion>(cf_edge);

    // Akamai Technologies (AS33905): 100 % aliased.
    AliasedRegion::Config akatech;
    akatech.asn = kAsAkamaiTech;
    akatech.prefixes = {pfx("2600:1480::/40")};
    akatech.mode = AliasMode::LoadBalanced;
    akatech.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                     proto_bit(Proto::Tcp443);
    akatech.known_per_scan = 4;
    akatech.known_cover_units = true;
    akatech.seed = hash_combine(cfg.seed, kAsAkamaiTech);
    add<AliasedRegion>(akatech);

    // Google: aliased front-end prefixes (QUIC-capable).
    AliasedRegion::Config google;
    google.asn = kAsGoogle;
    google.prefixes = {pfx("2a00:1450:4000::/48"), pfx("2a00:1450:4001::/48")};
    google.mode = AliasMode::LoadBalanced;
    google.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443) | proto_bit(Proto::Udp443);
    google.known_per_scan = n(30);
    google.known_cover_units = true;
    google.domain_share = 0.003;
    google.seed = hash_combine(cfg.seed, kAsGoogle);
    add<AliasedRegion>(google);

    // EpicUp: the 61 aliased /28s of the paper, scaled 1:10 -> six /28s,
    // the shortest aliased prefixes in the data set.
    AliasedRegion::Config epicup;
    epicup.asn = kAsEpicUp;
    for (int i = 0; i < 6; ++i) {
      Ipv6 base = ip("2602:f000::");
      base.set_nibble(6, static_cast<unsigned>(i));
      epicup.prefixes.push_back(Prefix::make(base, 28));
    }
    epicup.mode = AliasMode::SingleHost;
    epicup.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Tcp443);
    epicup.known_per_scan = 12;
    epicup.known_cover_units = true;
    epicup.seed = hash_combine(cfg.seed, kAsEpicUp);
    add<AliasedRegion>(epicup);

    // Misaka: anycast DNS service (UDP/53-responsive aliased prefixes).
    AliasedRegion::Config misaka;
    misaka.asn = kAsMisaka;
    misaka.prefixes = {pfx("2a0d:e640::/48"), pfx("2a0d:e641::/48"),
                       pfx("2a0d:e642::/48")};
    misaka.mode = AliasMode::SingleHost;
    misaka.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80) |
                    proto_bit(Proto::Udp53);
    misaka.known_per_scan = 4;
    misaka.known_cover_units = true;
    misaka.dns = DnsServerKind::Recursive;
    misaka.seed = hash_combine(cfg.seed, kAsMisaka);
    add<AliasedRegion>(misaka);

    // Trafficforce: 61.6 % of all 2022 aliased prefixes, ICMP-only /64s,
    // appearing out of nowhere in February 2022.
    if (cfg.include_trafficforce) {
      AliasedRegion::Config tf;
      tf.asn = kAsTrafficforce;
      for (int i = 0; i < 7; ++i) {
        Ipv6 base = ip("2a0d:5600::");
        base.set_nibble(10, static_cast<unsigned>(i));
        tf.prefixes.push_back(Prefix::make(base, 48));
      }
      tf.mode = AliasMode::SingleHost;
      tf.protos = proto_bit(Proto::Icmp);
      tf.honors_ptb = false;  // PTB-dropping middlebox: TBT unusable
      tf.sparse64_count = n(950);
      tf.known_cover_units = true;
      tf.appears = cfg.trafficforce_appears;
      tf.seed = hash_combine(cfg.seed, kAsTrafficforce);
      add<AliasedRegion>(tf);
    }
  }

  // ---- censored networks (Table 5 cast + tail) ----------------------------

  void add_censored() {
    struct CnSpec {
      Asn asn;
      const char* prefix;
      double router_share;  // of ~6000 border routers (Table 5 shares)
      std::uint32_t real_hosts;
    };
    const CnSpec specs[] = {
        {kAsChinaTelecomBb, "240e::/24", 0.4644, 40},
        {kAsChinaTelecom, "240e:100::/24", 0.1459, 160},
        {134774, "2408:8000::/24", 0.1388, 15},
        {134773, "2408:8100::/24", 0.0804, 12},
        {140329, "2409:8000::/28", 0.0237, 5},
        {134772, "2408:8200::/28", 0.0193, 5},
        {kAsChinaUnicom, "2408:8400::/24", 0.0187, 25},
        {136200, "240a:4000::/28", 0.0176, 4},
        {140330, "2409:8100::/28", 0.0172, 4},
        {140316, "2409:8200::/28", 0.0124, 4},
    };
    const double total_routers = 9600.0;
    for (const auto& s : specs) {
      CensoredNetwork::Config c;
      c.asn = s.asn;
      c.prefix = pfx(s.prefix);
      c.router_count = n(total_routers * s.router_share * 0.94);
      c.real_hosts = n(s.real_hosts);
      c.seed = hash_combine(cfg.seed, s.asn);
      add<CensoredNetwork>(c);
    }
    // Long tail of small censored networks (paper: 695 ASes affected in
    // total, 93 % of addresses in the top ten).
    for (int i = 0; i < cfg.tail_cn_as_count; ++i) {
      const Asn asn = kTailAsnBase + 100000 + static_cast<Asn>(i);
      registry.add({asn, "CN Tail " + std::to_string(i), "CN", AsKind::Isp});
      CensoredNetwork::Config c;
      c.asn = asn;
      Ipv6 base = ip("2401::");
      base.set_nibble(4, static_cast<unsigned>(i >> 4 & 0xf));
      base.set_nibble(5, static_cast<unsigned>(i & 0xf));
      c.prefix = Prefix::make(base, 32);
      c.router_count = n(9);
      c.real_hosts = 1 + static_cast<std::uint32_t>(i % 2);
      c.seed = hash_combine(cfg.seed, asn);
      add<CensoredNetwork>(c);
    }
  }

  // ---- procedural long tail ----------------------------------------------

  void add_tail() {
    const int count = std::max(1, static_cast<int>(cfg.tail_as_count * cfg.scale));
    for (int i = 0; i < count; ++i) {
      const Asn asn = kTailAsnBase + static_cast<Asn>(i);
      const std::uint64_t h = hash_combine(cfg.seed, 0x7a11 + asn);
      static const char* kCcs[] = {"US", "DE", "FR", "GB", "NL", "BR",
                                   "JP", "AU", "SE", "PL", "IT", "ES"};
      registry.add({asn, "TailNet-" + std::to_string(i), kCcs[h % 12],
                    h % 3 == 0 ? AsKind::Isp : AsKind::Hosting});

      const std::uint64_t hi =
          (0x2a10ULL << 48) | (static_cast<std::uint64_t>(i) << 32);
      const Prefix p = Prefix::make(Ipv6::from_words(hi, 0), 32);

      ServerFarm::Config farm;
      farm.asn = asn;
      farm.prefix = p;
      farm.subnet_bits = 8;
      farm.subnets = 1;
      farm.hosts_per_subnet = 1 + static_cast<std::uint32_t>(mix64(h) % 2);
      farm.tcp80_frac = 0.3;
      farm.tcp443_frac = 0.25;
      farm.udp53_frac = 0.02;
      farm.udp443_frac = 0.02;
      farm.known_frac = 0.4;
      // 1-in-40 tail operators run a dense IID block (distance-clustering
      // food, spread over many small ASes).
      if (mix64(h + 11) % 40 == 0) {
        farm.hosts_per_subnet = 24;
        farm.iid_stride = 4;
        farm.known_frac = 0.5;
      }
      farm.domain_share = 0.0003;
      // ~60 % of the tail existed when the service started; the rest
      // deploys IPv6 during the observation window (organic growth).
      farm.appears = mix64(h + 1) % 100 < 60
                         ? 0
                         : static_cast<int>(mix64(h + 7) % 40);
      farm.seed = hash_combine(cfg.seed, asn);
      add<ServerFarm>(farm);

      // A cohort of operators runs authoritative name servers — the stable
      // UDP/53 responder baseline of Table 1 (~140 k addresses, flat).
      if (mix64(h + 9) % 18 == 0) {
        ServerFarm::Config ns;
        ns.asn = asn;
        ns.prefix = Prefix::make(Ipv6::from_words(hi | 0x53, 0), 48);
        ns.subnet_bits = 4;
        ns.subnets = 1;
        ns.hosts_per_subnet = 1;
        ns.stable_frac = 0.5;  // name servers are kept alive
        ns.udp53_frac = 1.0;
        ns.tcp80_frac = 0.05;
        ns.tcp443_frac = 0.05;
        ns.udp443_frac = 0.0;
        ns.known_frac = 1.0;
        ns.appears = 0;
        ns.seed = hash_combine(cfg.seed, asn ^ 0x53);
        add<ServerFarm>(ns);
      }

      // A fraction of tail operators run one fully-responsive /64
      // (load balancer / middlebox) that acquires input presence when the
      // operator appears — organic aliased-prefix growth.
      if (unit_from_hash(hash_combine(h, 0xa11a5)) < cfg.tail_alias_frac) {
        AliasedRegion::Config al;
        al.asn = asn;
        Ipv6 base = Ipv6::from_words(hi | 0xffff, 0);
        al.prefixes = {Prefix::make(base, 64)};
        // ~1 % of tail middleboxes front several independent machines
        // (the TBT none-shared / TCP-window-variation cases).
        al.mode = mix64(h + 2) % 120 == 0 ? AliasMode::MultiHost
                                          : AliasMode::SingleHost;
        al.protos = proto_bit(Proto::Icmp) | proto_bit(Proto::Tcp80);
        if (mix64(h) % 3 == 0) al.protos |= proto_bit(Proto::Tcp443);
        if (mix64(h) % 7 == 0) al.protos = proto_bit(Proto::Icmp);
        // A handful of anycast DNS operators (Table 2: UDP/53-responsive
        // aliased prefixes come from ~32 ASes).
        if (mix64(h + 4) % 90 == 0) {
          al.protos |= proto_bit(Proto::Icmp) | proto_bit(Proto::Udp53);
          al.dns = DnsServerKind::Recursive;
        }
        al.known_per_scan = 1;
        al.known_cover_units = true;
        al.appears = farm.appears;
        al.seed = hash_combine(cfg.seed, asn ^ 0xa1);
        add<AliasedRegion>(al);
      }
    }
  }

  void add_transits() {
    transits.push_back(
        World::TransitAs{pfx("2001:1900::/32"), sc(cfg.scale, 64)});
    routes.push_back({pfx("2001:1900::/32"), kAsLevel3});
  }

  std::unique_ptr<World> build() {
    add_transits();
    add_isps();
    add_farms();
    add_cdns();
    add_censored();
    add_tail();
    return std::make_unique<World>(
        std::move(registry), Rib(std::move(routes)), Gfw{cfg.gfw},
        std::move(deps), std::move(transits), cfg.seed);
  }
};

}  // namespace

std::unique_ptr<World> build_world(const WorldConfig& cfg) {
  Builder b{cfg};
  return b.build();
}

std::unique_ptr<World> build_test_world(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.scale = 0.1;
  cfg.tail_as_count = 200;
  cfg.tail_cn_as_count = 10;
  return build_world(cfg);
}

}  // namespace sixdust
