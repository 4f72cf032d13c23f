// Aliased-prefix survey: run the multi-level aliased prefix detection on a
// CDN-heavy world, then interrogate the detected prefixes the way Sec. 5
// of the paper does — TCP fingerprints, the Too Big Trick, per-AS space
// fractions, and the domains that would be lost by dropping them.

#include <cstdio>
#include <map>

#include "alias/apd.hpp"
#include "alias/tbt.hpp"
#include "alias/tcp_fp.hpp"
#include "analysis/report.hpp"
#include "dns/zonedb.hpp"
#include "netbase/u128.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

int main() {
  auto world = build_test_world(8);
  const ScanDate date{45};

  // Candidate input: addresses that public sources reveal.
  std::vector<KnownAddress> known;
  world->enumerate_known(date, known);
  std::vector<Ipv6> input;
  input.reserve(known.size());
  for (const auto& k : known) input.push_back(k.addr);
  std::printf("input addresses: %zu\n", input.size());

  // Multi-level detection (BGP prefixes + /64s + longer levels).
  AliasDetector detector(AliasDetector::Config{});
  const auto detection = detector.detect(*world, input, date);
  std::printf("aliased prefixes detected: %zu (%llu probes)\n\n",
              detection.aliased.size(),
              static_cast<unsigned long long>(detection.probes_sent));

  // Length histogram (Fig. 5 style).
  std::map<int, int> by_len;
  for (const auto& p : detection.aliased) ++by_len[p.len()];
  std::printf("prefix length histogram:\n");
  for (const auto& [len, count] : by_len)
    std::printf("  /%-4d %d\n", len, count);

  // Fingerprinting: is it really one host?
  TcpFingerprinter fper(TcpFingerprinter::Config{});
  const auto fp = fper.run(*world, detection.aliased, date);
  std::printf("\nTCP fingerprints: %zu fingerprintable, %zu uniform, "
              "%zu vary in window size\n",
              fp.fingerprintable, fp.uniform, fp.window_differs);

  world->reset_pmtu();
  TooBigTrick tbt(TooBigTrick::Config{});
  const auto tbt_sum = tbt.run(*world, detection.aliased, date);
  std::printf("Too Big Trick:    %zu usable — %zu one machine, %zu "
              "load-balanced (partial PMTU sharing), %zu independent\n",
              tbt_sum.usable, tbt_sum.all_shared, tbt_sum.partial_shared,
              tbt_sum.none_shared);

  // Which operators would a blanket exclusion erase?
  Table table({"AS", "aliased space", "of announced"});
  std::map<Asn, u128> space;
  for (const auto& p : detection.aliased)
    if (auto asn = world->rib().origin(p.base())) space[*asn] += p.size();
  std::vector<std::pair<Asn, u128>> rows(space.begin(), space.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < rows.size() && i < 8; ++i) {
    const double frac =
        u128_to_double(rows[i].second) /
        u128_to_double(world->rib().announced_space(rows[i].first));
    table.row({world->registry().label(rows[i].first),
               "2^" + std::to_string(u128_log2(rows[i].second)),
               fmt_pct(frac)});
  }
  std::printf("\n");
  table.print();

  // Domains hosted inside aliased prefixes (Sec. 5.2).
  ZoneDb::Config zc;
  zc.domain_count = 30000;
  zc.toplist_size = 1000;
  ZoneDb zones(world.get(), zc);
  std::size_t hosted = 0;
  std::size_t toplist_hosted = 0;
  for (std::uint32_t id = 0; id < zones.domain_count(); ++id) {
    auto a = zones.resolve_aaaa(id, date);
    if (a && detection.aliased_set.covers(*a)) ++hosted;
  }
  for (auto id : zones.toplist(ZoneDb::TopList::Alexa)) {
    auto a = zones.resolve_aaaa(id, date);
    if (a && detection.aliased_set.covers(*a)) ++toplist_hosted;
  }
  std::printf("\ndomains resolving into aliased prefixes: %zu of %u\n",
              hosted, zones.domain_count());
  std::printf("top-list domains affected: %zu of 1000\n", toplist_hosted);
  std::printf("\n=> dropping all \"aliased\" prefixes would silently drop "
              "these CDNs and domains\n   (the paper's argument for keeping "
              "one address per fully-responsive prefix).\n");
  return 0;
}
