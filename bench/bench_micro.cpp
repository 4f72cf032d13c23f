// Microbenchmarks (google-benchmark): the hot paths of the library —
// address parsing/formatting, trie longest-prefix match, the scanner's
// cyclic permutation, probe dispatch into the simulated world, and the DNS
// wire codec.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <unordered_set>

#include "alias/apd.hpp"
#include "core/parallel.hpp"
#include "core/thread_pool.hpp"
#include "hitlist/service.hpp"
#include "netbase/addr_batch.hpp"
#include "netbase/frozen_lpm.hpp"
#include "netbase/hash.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "netbase/rng.hpp"
#include "proto/dns.hpp"
#include "proto/wire.hpp"
#include "scanner/cyclic.hpp"
#include "scanner/zmap6.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_manager.hpp"
#include "serve/telemetry.hpp"
#include "tga/sixgraph.hpp"
#include "tga/sixtree.hpp"
#include "topo/isp_pool.hpp"
#include "topo/world_builder.hpp"

#include "support.hpp"

namespace {

using namespace sixdust;

void BM_Ipv6Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto a = Ipv6::parse("2001:db8:85a3::8a2e:370:7334");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Ipv6Parse);

void BM_Ipv6Format(benchmark::State& state) {
  const Ipv6 a = ip("2001:db8:85a3::8a2e:370:7334");
  for (auto _ : state) {
    auto s = a.str();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Ipv6Format);

// --- Address kernels: the word-level codecs on the World probe path -------

void BM_PrefixRandomAddress(benchmark::State& state) {
  // One APD-style probe address per iteration, in a prefix of length
  // state.range(0).
  const Prefix p = Prefix::make(ip("2a02:26f0:6c00:1234:5678:9abc:def0:1"),
                                static_cast<int>(state.range(0)));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    auto a = p.random_address(++salt);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_PrefixRandomAddress)->Arg(32)->Arg(48)->Arg(64)->Arg(96);

void BM_IspPoolHost(benchmark::State& state) {
  // The probe mix an eyeball pool sees: its known CPE addresses (decoded
  // down to the MAC draw) and random addresses inside its block (rejected
  // by the subnet-field and EUI-64 checks).
  IspPool::Config cfg;
  cfg.asn = 65002;
  cfg.prefix = pfx("2800:a000::/32");
  cfg.subnet_bits = 24;
  cfg.active_per_scan = 2000;
  cfg.discovered_per_scan = 8000;
  const IspPool pool(cfg);
  const ScanDate d{0};
  std::vector<KnownAddress> known;
  pool.enumerate_known(d, known);
  std::vector<Ipv6> probes;
  for (std::size_t i = 0; i < known.size(); ++i) {
    probes.push_back(known[i].addr);
    probes.push_back(cfg.prefix.random_address(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto h = pool.host(probes[i], d);
    benchmark::DoNotOptimize(h);
    if (++i == probes.size()) i = 0;
  }
}
BENCHMARK(BM_IspPoolHost);

void BM_IspPoolHostLateEpoch(benchmark::State& state) {
  // Probes on the 46th monthly epoch of a reactivating pool: a subnet
  // that is not active now is checked against every earlier epoch, which
  // the activity column answers in one binary search.
  IspPool::Config cfg;
  cfg.asn = 65002;
  cfg.prefix = pfx("2800:a000::/32");
  cfg.subnet_bits = 24;
  cfg.active_per_scan = 600;
  cfg.discovered_per_scan = 6000;
  cfg.rotation_scans = 1;
  cfg.reactivation = 0.2;
  const IspPool pool(cfg);
  const ScanDate d{45};
  std::vector<Ipv6> probes;
  for (int e = 0; e <= d.index; e += 3) {
    std::vector<KnownAddress> known;
    pool.enumerate_known(ScanDate{e}, known);
    for (std::size_t i = 0; i < known.size(); i += 7)
      probes.push_back(known[i].addr);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto h = pool.host(probes[i], d);
    benchmark::DoNotOptimize(h);
    if (++i == probes.size()) i = 0;
  }
}
BENCHMARK(BM_IspPoolHostLateEpoch);

// --- LPM engine: realistic prefix distributions ---------------------------
//
// A RIB-like announcement mix (/32../48 allocations with covering /32s and
// more-specific /40../48s) plus a band of aliased /64s — the shapes the
// service resolves against on every probe: origin lookups, blocklist
// checks, and the aliased filter. The legacy radix-1 trie (the seed's
// bit-at-a-time structure) is kept here as the baseline FrozenLpm is
// measured against.

/// The seed's binary (radix-1) trie, verbatim minus visit/exact — baseline
/// for the BM_LpmLookup comparison.
template <typename T>
class LegacyRadix1Trie {
 public:
  LegacyRadix1Trie() { nodes_.push_back(Node{}); }

  void insert(const Prefix& p, T value) {
    std::size_t n = 0;
    for (int b = 0; b < p.len(); ++b) {
      const bool bit = p.base().bit(b);
      if (nodes_[n].child[bit] == 0) {
        nodes_.push_back(Node{});
        nodes_[n].child[bit] = nodes_.size() - 1;
      }
      n = nodes_[n].child[bit];
    }
    nodes_[n].value = std::move(value);
    nodes_[n].occupied = true;
  }

  struct Match {
    Prefix prefix;
    const T* value = nullptr;
  };

  [[nodiscard]] std::optional<Match> longest_match(const Ipv6& a) const {
    std::optional<Match> best;
    std::size_t n = 0;
    for (int b = 0; b <= 128; ++b) {
      if (nodes_[n].occupied) best = Match{Prefix::make(a, b), &*nodes_[n].value};
      if (b == 128) break;
      const std::size_t c = nodes_[n].child[a.bit(b)];
      if (c == 0) break;
      n = c;
    }
    return best;
  }

 private:
  struct Node {
    std::size_t child[2] = {0, 0};
    std::optional<T> value;
    bool occupied = false;
  };
  std::vector<Node> nodes_;
};

std::vector<Prefix> rib_scale_prefixes() {
  // ~12k prefixes: 2k /32 allocations spread over the RIR /12 blocks the
  // way a real global table is, nested /40 and /48 more-specifics, and 8k
  // aliased /64s concentrated under a handful of hosting /48s.
  static constexpr std::uint64_t kRirBlocks[] = {
      0x2001, 0x2400, 0x2600, 0x2620, 0x2800, 0x2a00, 0x2a10, 0x2c00};
  std::vector<Prefix> out;
  Rng rng(0x41B5CA1E);
  std::vector<Prefix> slash32;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t block = kRirBlocks[rng.below(std::size(kRirBlocks))];
    const Ipv6 base =
        Ipv6::from_words((block << 48) | (rng.next() & 0xffffffff0000ULL), 0);
    slash32.push_back(Prefix::make(base, 32));
    out.push_back(slash32.back());
  }
  for (int i = 0; i < 1000; ++i) {
    const Prefix& p = slash32[rng.below(slash32.size())];
    out.push_back(Prefix::make(p.random_address(rng.next()), 40));
    out.push_back(Prefix::make(p.random_address(rng.next()), 48));
  }
  for (int h = 0; h < 8; ++h) {
    const Prefix hoster =
        Prefix::make(slash32[rng.below(slash32.size())].random_address(rng.next()), 48);
    for (int i = 0; i < 1000; ++i)
      out.push_back(Prefix::make(hoster.random_address(rng.next()), 64));
  }
  return out;
}

std::vector<Ipv6> lpm_probe_batch(const std::vector<Prefix>& prefixes) {
  // Probe mix: almost everything inside announced space (all depths) with
  // a sliver of unrouted strays — the shape of origin lookups, where every
  // simulated host lives under some announcement and only the odd
  // traceroute hop misses the table.
  std::vector<Ipv6> probes;
  Rng rng(0x9B0BE5);
  for (int i = 0; i < 4096; ++i) {
    if (i % 16 == 7) {
      probes.push_back(Ipv6::from_words(rng.next(), rng.next()));
    } else {
      probes.push_back(
          prefixes[rng.below(prefixes.size())].random_address(rng.next()));
    }
  }
  return probes;
}

/// The (prefix, value) column a consumer hands FrozenLpm: value = index.
std::vector<std::pair<Prefix, int>> lpm_column(
    const std::vector<Prefix>& prefixes) {
  std::vector<std::pair<Prefix, int>> column;
  column.reserve(prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    column.emplace_back(prefixes[i], static_cast<int>(i));
  return column;
}

void BM_LpmLookup(benchmark::State& state) {
  static const std::vector<Prefix> prefixes = rib_scale_prefixes();
  static const std::vector<Ipv6> probes = lpm_probe_batch(prefixes);

  static const LegacyRadix1Trie<int> legacy = [] {
    LegacyRadix1Trie<int> t;
    for (std::size_t i = 0; i < prefixes.size(); ++i)
      t.insert(prefixes[i], static_cast<int>(i));
    return t;
  }();
  static const FrozenLpm<int> frozen{lpm_column(prefixes)};

  // Each engine pays its real call-site cost: the seed's only API was
  // longest_match (an optional<Match> built on the way down); FrozenLpm
  // serves the probe path through the value-only lookup().
  const bool seed_engine = state.range(0) == 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    for (const Ipv6& a : probes) {
      if (seed_engine) {
        hits += legacy.longest_match(a).has_value();
      } else {
        hits += frozen.lookup(a) != nullptr;
      }
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_LpmLookup)
    ->Arg(0)   // 0 = seed radix-1 baseline
    ->Arg(2);  // 2 = FrozenLpm (numbered as in earlier results)

/// Times the whole build a consumer pays: the (prefix, value) column, its
/// sort and the table compile.
void BM_LpmBuild(benchmark::State& state) {
  static const std::vector<Prefix> prefixes = rib_scale_prefixes();
  for (auto _ : state) {
    FrozenLpm<int> f{lpm_column(prefixes)};
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(prefixes.size()));
}
BENCHMARK(BM_LpmBuild);

void BM_CyclicPermutation(benchmark::State& state) {
  CyclicPermutation perm(1 << 20, 42);
  for (auto _ : state) benchmark::DoNotOptimize(perm.next());
}
BENCHMARK(BM_CyclicPermutation);

void BM_WorldIcmpProbe(benchmark::State& state) {
  static auto world = build_test_world(3);
  const Ipv6 target = ip("2600:3c00:1::1");
  const ScanDate d{10};
  for (auto _ : state) {
    auto r = world->icmp_echo(target, IcmpEchoRequest{}, d);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WorldIcmpProbe);

void BM_WorldProbeFresh(benchmark::State& state) {
  // The APD probe shape on targets the world has never been asked about:
  // one fresh random address in each of the 16 sub-prefixes of every
  // candidate, ICMP tried twice, then TCP/80. Every iteration draws new
  // targets, so a per-target memo in World would only add misses here.
  // Arg is the pool size (1 = no pool).
  static auto world = build_test_world(10);
  static const std::vector<Prefix> cands = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{10}, known);
    std::vector<Ipv6> input;
    for (const auto& k : known) input.push_back(k.addr);
    return AliasDetector::candidates(world->rib(), input,
                                     AliasDetector::Config{});
  }();
  const ScanDate d{10};
  const auto pool = ThreadPool::create(static_cast<unsigned>(state.range(0)));
  const std::size_t chunks = pool == nullptr ? 1 : 4 * pool->size();
  std::vector<std::uint64_t> chunk_probes(chunks);
  std::uint64_t salt = 0;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    ++salt;
    parallel_for(pool.get(), cands.size(), chunks,
                 [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                   std::uint64_t local = 0;
                   for (std::size_t i = lo; i < hi; ++i)
                     for (unsigned s = 0; s < 16; ++s) {
                       const Ipv6 target =
                           cands[i].subprefix(s, 4).random_address(salt);
                       bool responded = false;
                       for (int attempt = 0; attempt < 2 && !responded;
                            ++attempt) {
                         ++local;
                         responded =
                             world->icmp_echo(target, IcmpEchoRequest{}, d)
                                 .has_value();
                       }
                       if (!responded) {
                         ++local;
                         benchmark::DoNotOptimize(world->tcp_syn(target, 80, d));
                       }
                     }
                   chunk_probes[chunk] = local;
                 });
    for (std::uint64_t c : chunk_probes) probes += c;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_WorldProbeFresh)->Arg(1)->Arg(4)->UseRealTime();

void BM_DnsEncodeDecode(benchmark::State& state) {
  DnsMessage q = make_query("www.google.com", RrType::AAAA, 99);
  q.answers.push_back(make_aaaa("www.google.com", ip("2a00:1450:4001::1")));
  for (auto _ : state) {
    auto wire = q.encode();
    auto back = DnsMessage::decode(wire);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_DnsEncodeDecode);

void BM_WorldDnsQueryWithInjection(benchmark::State& state) {
  static auto world = build_test_world(4);
  const Ipv6 target = pfx("240e::/24").random_address(9);
  const DnsQuestion q{"www.google.com", RrType::AAAA};
  const ScanDate d{35};  // Teredo era
  for (auto _ : state) {
    auto r = world->dns_query(target, q, d);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WorldDnsQueryWithInjection);

void BM_ScannerFullSweep(benchmark::State& state) {
  static auto world = build_test_world(5);
  static const std::vector<Ipv6> targets = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    return t;
  }();
  Zmap6 zmap(Zmap6::Config{.seed = 1, .loss = 0.01, .retries = 1});
  for (auto _ : state) {
    auto r = zmap.scan(*world, targets, Proto::Icmp, ScanDate{0});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ScannerFullSweep);

void BM_ParallelScan(benchmark::State& state) {
  // Thread-scaling of the parallel scan engine on a >= 2^16-target sweep;
  // Arg is the Config::threads value (1 = exact sequential path).
  static auto world = build_test_world(8);
  static const std::vector<Ipv6> targets = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    for (std::uint64_t i = 0; t.size() < (1u << 16); ++i)
      t.push_back(pfx("2600:3c00::/32").random_address(0xBE7C4 + i));
    return t;
  }();
  Zmap6 zmap(Zmap6::Config{.seed = 1,
                           .loss = 0.01,
                           .retries = 1,
                           .threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    auto r = zmap.scan(*world, targets, Proto::Icmp, ScanDate{0});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ParallelScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Zmap6AllProtos(benchmark::State& state) {
  // The service's scan phase: all five protocols over one target list,
  // each target resolved once; Arg is the pool size.
  static auto world = build_test_world(8);
  static const std::vector<Ipv6> targets = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    for (std::uint64_t i = 0; t.size() < (1u << 15); ++i)
      t.push_back(pfx("2600:3c00::/32").random_address(0xBE7C4 + i));
    return t;
  }();
  Zmap6 zmap(Zmap6::Config{.seed = 1, .loss = 0.01, .retries = 0});
  zmap.set_pool(ThreadPool::create(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    auto r = zmap.scan(*world, targets, kAllProtoMask, ScanDate{0});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size()) *
                          kProtoCount);
}
BENCHMARK(BM_Zmap6AllProtos)->Arg(1)->Arg(4)->UseRealTime();

void BM_ApdProbeRound(benchmark::State& state) {
  // One APD probe round over the service's eligible column at scan 40 of
  // the scale-0.1 world (perfbench's timeline-dense shape), stepped and
  // enumerated untimed. Responsive candidates cluster in (base, len)
  // order, so this shows both the per-target cost and the chunk balance
  // across the pool; Arg is the pool size.
  static auto world =
      build_world(WorldConfig{.seed = 7, .scale = 0.1, .tail_as_count = 200});
  constexpr int kScan = 40;
  static const std::vector<Prefix> cands = [] {
    HitlistService svc(HitlistService::Config{});
    for (int i = 0; i < kScan; ++i) (void)svc.step(*world, ScanDate{i});
    return AliasDetector::candidates(world->rib(), svc.eligible_targets(),
                                     svc.config().apd);
  }();
  AliasDetector apd(HitlistService::Config{}.apd);
  apd.set_pool(ThreadPool::create(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    std::uint64_t probes = 0;
    auto masks = apd.probe_round(*world, cands, ScanDate{kScan}, &probes);
    benchmark::DoNotOptimize(masks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cands.size()));
}
BENCHMARK(BM_ApdProbeRound)->Arg(1)->Arg(4)->UseRealTime();

void BM_YarrpTrace(benchmark::State& state) {
  // The service's traceroute phase: a 20k-target budget over the test
  // world's known addresses plus silent padding; Arg is the pool size.
  static auto world = build_test_world(8);
  static const std::vector<Ipv6> targets = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    for (std::uint64_t i = 0; t.size() < (1u << 15); ++i)
      t.push_back(pfx("2600:3c00::/32").random_address(0x7A2B + i));
    return t;
  }();
  Yarrp yarrp(Yarrp::Config{.target_budget = 20000});
  yarrp.set_pool(ThreadPool::create(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    auto r = yarrp.trace(*world, targets, ScanDate{3});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20000);
}
BENCHMARK(BM_YarrpTrace)->Arg(1)->Arg(4)->UseRealTime();

void BM_HitlistTimelineDense(benchmark::State& state) {
  // The whole service on the 46-scan test-world timeline (perfbench's
  // timeline-dense shape): APD candidate enumeration, the alias filter and
  // bookkeeping run on the sorted eligible column here. Each iteration
  // steps a new service over a fresh world (built untimed); Arg is the
  // thread count.
  const auto threads = static_cast<unsigned>(state.range(0));
  std::size_t targets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = build_world(
        WorldConfig{.seed = 7, .scale = 0.1, .tail_as_count = 200});
    state.ResumeTiming();
    HitlistService::Config cfg;
    cfg.threads = threads;
    HitlistService svc(cfg);
    for (int i = 0; i < 46; ++i)
      targets += svc.step(*world, ScanDate{i}).scan_targets;
    state.PauseTiming();
    world.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(targets);
  state.SetItemsProcessed(static_cast<std::int64_t>(targets));
}
BENCHMARK(BM_HitlistTimelineDense)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_InputDbAdd(benchmark::State& state) {
  // A hit-heavy feed like the traceroute phase's: 2^17 adds of 2^14
  // distinct addresses, each repeated about eight times in random order,
  // into a fresh InputDb.
  static const std::vector<Ipv6> feed = [] {
    Rng rng(0x1DB);
    std::vector<Ipv6> distinct;
    for (std::uint64_t i = 0; i < (1u << 14); ++i)
      distinct.push_back(pfx("240e::/24").random_address(rng.next()));
    std::vector<Ipv6> f;
    for (std::uint64_t i = 0; i < (1u << 17); ++i)
      f.push_back(distinct[rng.next() % distinct.size()]);
    return f;
  }();
  for (auto _ : state) {
    InputDb db;
    for (const Ipv6& a : feed) db.add(a, kSrcTraceroute, 0);
    benchmark::DoNotOptimize(db.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(feed.size()));
}
BENCHMARK(BM_InputDbAdd);

void BM_ParallelScanMetrics(benchmark::State& state) {
  // BM_ParallelScan with telemetry attached: the overhead is a handful of
  // striped relaxed fetch_adds per shard, so the two benchmarks should sit
  // within noise of each other (< 3% is the PR acceptance bar).
  static auto world = build_test_world(8);
  static const std::vector<Ipv6> targets = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    for (std::uint64_t i = 0; t.size() < (1u << 16); ++i)
      t.push_back(pfx("2600:3c00::/32").random_address(0xBE7C4 + i));
    return t;
  }();
  static MetricsRegistry registry;
  Zmap6::Config cfg{.seed = 1,
                    .loss = 0.01,
                    .retries = 1,
                    .threads = static_cast<unsigned>(state.range(0))};
  cfg.metrics = &registry;
  Zmap6 zmap(cfg);
  for (auto _ : state) {
    auto r = zmap.scan(*world, targets, Proto::Icmp, ScanDate{0});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ParallelScanMetrics)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ParallelScanTraced(benchmark::State& state) {
  // BM_ParallelScanMetrics with a span recorder attached on top: adds one
  // stable scan span per sweep and one volatile shard span per shard.
  // Span cost is a ring push under an uncontended per-thread mutex, so a
  // traced run must stay within 3% of the untraced one (the PR acceptance
  // bar; compare against BM_ParallelScan at the same Arg).
  static auto world = build_test_world(8);
  static const std::vector<Ipv6> targets = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    for (std::uint64_t i = 0; t.size() < (1u << 16); ++i)
      t.push_back(pfx("2600:3c00::/32").random_address(0xBE7C4 + i));
    return t;
  }();
  static MetricsRegistry registry;
  static TraceRecorder recorder;
  registry.set_tracer(&recorder);
  Zmap6::Config cfg{.seed = 1,
                    .loss = 0.01,
                    .retries = 1,
                    .threads = static_cast<unsigned>(state.range(0))};
  cfg.metrics = &registry;
  Zmap6 zmap(cfg);
  for (auto _ : state) {
    auto r = zmap.scan(*world, targets, Proto::Icmp, ScanDate{0});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ParallelScanTraced)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SpanOverhead(benchmark::State& state) {
  // The raw cost of one open-attr-close span cycle (steady_clock read,
  // ring push under the thread's own mutex).
  static TraceRecorder recorder(1 << 10);
  for (auto _ : state) {
    Span s = recorder.span("bench.span", SpanCat::kOther);
    s.attr("k", std::uint64_t{7});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOverhead);

void BM_TraceExport(benchmark::State& state) {
  // Chrome-JSON export of a service-run-sized trace (~4k spans).
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder(1 << 13);
    for (int i = 0; i < 4096; ++i) {
      Span s = r->span("bench.export", SpanCat::kScanner);
      s.attr("proto", "icmp").attr("scan", i % 46);
      r->sim_advance_us(100);
    }
    return r;
  }();
  for (auto _ : state) {
    auto json = recorder->chrome_json();
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_TraceExport);

void BM_MetricsIncrement(benchmark::State& state) {
  // The hot-path cost of one counter increment (striped relaxed fetch_add).
  static MetricsRegistry registry;
  Counter& c = registry.counter("bench.increment");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsIncrement);

void BM_Snapshot(benchmark::State& state) {
  // Snapshot + JSON export of a registry about the size of a service run.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry;
    for (int i = 0; i < 48; ++i)
      r->counter("bench.counter" + std::to_string(i)).add(
          static_cast<std::uint64_t>(i) * 977);
    for (int i = 0; i < 8; ++i)
      r->gauge("bench.gauge" + std::to_string(i)).set(i * 31);
    static constexpr std::uint64_t kBounds[] = {16, 256, 4096, 65536};
    for (int i = 0; i < 6; ++i) {
      Histogram& h = r->histogram("bench.hist" + std::to_string(i), kBounds);
      for (std::uint64_t v = 1; v < 100000; v *= 3) h.record(v);
    }
    return r;
  }();
  for (auto _ : state) {
    auto json = registry->snapshot().to_json();
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_Snapshot);

void BM_ParallelApd(benchmark::State& state) {
  // Thread-scaling of the per-candidate APD probe fan-out.
  static auto world = build_test_world(9);
  static const std::vector<Ipv6> input = [] {
    std::vector<KnownAddress> known;
    world->enumerate_known(ScanDate{0}, known);
    std::vector<Ipv6> t;
    for (const auto& k : known) t.push_back(k.addr);
    for (std::uint64_t i = 0; t.size() < 20000; ++i)
      t.push_back(pfx("240e::/24").random_address(0xA9D + i));
    return t;
  }();
  // No history: every iteration is the same single round.
  AliasDetector apd(AliasDetector::Config{
      .history = 0, .threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    auto d = apd.detect(*world, input, ScanDate{0});
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_ParallelApd)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void run_apd_candidates(benchmark::State& state,
                        const std::vector<Ipv6>& input) {
  static auto world = build_test_world(6);
  AliasDetector::Config cfg;
  for (auto _ : state) {
    auto c = AliasDetector::candidates(world->rib(), input, cfg);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}

void BM_ApdCandidates(benchmark::State& state) {
  // 10k addresses spread over 240e::/24: one per /64, so only rules (a)
  // and (b) produce candidates.
  std::vector<Ipv6> input;
  for (std::uint64_t i = 0; i < 10000; ++i)
    input.push_back(pfx("240e::/24").random_address(i));
  run_apd_candidates(state, input);
}
BENCHMARK(BM_ApdCandidates);

void BM_ApdCandidatesDense(benchmark::State& state) {
  // 10k addresses in 20 /64s, 500 each inside one /104: rule (c) emits a
  // candidate at every level from /68 to /104 of every /64.
  const std::uint64_t hi = ip("2001:db8::").hi();
  std::vector<Ipv6> input;
  for (std::uint64_t i = 0; i < 10000; ++i)
    input.push_back(Ipv6::from_words(hi + i % 20, mix64(i) >> 40));
  run_apd_candidates(state, input);
}
BENCHMARK(BM_ApdCandidatesDense);

const std::vector<Ipv6>& tga_seeds() {
  static const std::vector<Ipv6> seeds = [] {
    std::vector<Ipv6> s;
    for (std::uint32_t i = 0; i < 2000; ++i) {
      Ipv6 a = ip("2a01:e000::");
      a.set_nibble(8, i >> 8 & 0xf);
      a.set_nibble(9, i >> 4 & 0xf);
      a.set_nibble(10, i & 0xf);
      s.push_back(Ipv6::from_words(a.hi(), 1 + i % 2));
    }
    return s;
  }();
  return seeds;
}

void BM_SixTreeGenerate(benchmark::State& state) {
  SixTree gen{SixTree::Config{}};
  for (auto _ : state) {
    auto c = gen.generate(tga_seeds(), 20000);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SixTreeGenerate);

void BM_SixGraphGenerate(benchmark::State& state) {
  SixGraph gen{SixGraph::Config{}};
  for (auto _ : state) {
    auto c = gen.generate(tga_seeds(), 20000);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SixGraphGenerate);

void BM_TcpWireCodec(benchmark::State& state) {
  const Ipv6 src = ip("2001:db8::1");
  const Ipv6 dst = ip("2a00:1450::2");
  TcpSegment seg;
  seg.src_port = 443;
  seg.dst_port = 50000;
  seg.mss = 1440;
  seg.window_scale = 7;
  seg.sack_permitted = true;
  seg.timestamps = {{1, 2}};
  for (auto _ : state) {
    auto wire = encode_tcp(seg, src, dst);
    auto back = decode_tcp(wire, src, dst);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TcpWireCodec);

void BM_ChecksumIpv6(benchmark::State& state) {
  const Ipv6 src = ip("2001:db8::1");
  const Ipv6 dst = ip("2a00:1450::2");
  std::vector<std::uint8_t> data(1300, 0xab);
  for (auto _ : state)
    benchmark::DoNotOptimize(checksum_ipv6(src, dst, 58, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1300);
}
BENCHMARK(BM_ChecksumIpv6);

// --- batch address engine ---------------------------------------------------
//
// The scalar-vs-columnar pairs below are the acceptance gauge of the batch
// engine (DESIGN.md §12): at candidate-set scale the batched nibble
// transpose and the radix sort-unique dedup must each beat the scalar seed
// path by >= 3x.

/// Candidate-set-shaped input: a handful of /32s, structured low words,
/// ~20 % duplicates — what the generators actually dedup.
std::vector<Ipv6> bench_addrs(std::size_t n) {
  Rng rng(0xBA7C4);
  std::vector<Ipv6> out;
  out.reserve(n);
  while (out.size() < n) {
    if (!out.empty() && rng.unit() < 0.2) {
      out.push_back(out[rng.below(out.size())]);
      continue;
    }
    const std::uint64_t hi = 0x2001'0db8'0000'0000ULL |
                             (rng.below(16) << 32) | rng.below(0x10000);
    out.push_back(Ipv6::from_words(hi, rng.below(1u << 20)));
  }
  return out;
}

void BM_AddrBatchSortUniqueScalar(benchmark::State& state) {
  // The seed path: std::sort + std::unique over the AoS vector.
  const auto addrs = bench_addrs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Ipv6> v = addrs;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AddrBatchSortUniqueScalar)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_AddrBatchSortUniqueRadix(benchmark::State& state) {
  const auto addrs = bench_addrs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    AddrBatch batch{std::span<const Ipv6>(addrs)};
    batch.sort_unique();
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AddrBatchSortUniqueRadix)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_AddrBatchTransposeScalar(benchmark::State& state) {
  // The seed path: 32 nibble() extractions (shift by a variable amount)
  // per address.
  const auto addrs = bench_addrs(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> out(addrs.size() * 32);
  for (auto _ : state) {
    for (std::size_t i = 0; i < addrs.size(); ++i)
      for (int pos = 0; pos < 32; ++pos)
        out[i * 32 + static_cast<std::size_t>(pos)] =
            static_cast<std::uint8_t>(addrs[i].nibble(pos));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AddrBatchTransposeScalar)->Arg(1 << 17);

void BM_AddrBatchTransposeColumnar(benchmark::State& state) {
  const auto addrs = bench_addrs(static_cast<std::size_t>(state.range(0)));
  const AddrBatch batch{std::span<const Ipv6>(addrs)};
  std::vector<std::uint8_t> out(addrs.size() * 32);
  for (auto _ : state) {
    batch.transpose_nibbles(out.data());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AddrBatchTransposeColumnar)->Arg(1 << 17);

void BM_AddrBatchMembershipScalar(benchmark::State& state) {
  // The seed path of the evaluate() filter: one hash probe per candidate.
  const auto addrs = bench_addrs(static_cast<std::size_t>(state.range(0)));
  const auto known_v = bench_addrs(static_cast<std::size_t>(state.range(0)));
  const std::unordered_set<Ipv6, Ipv6Hasher> known(known_v.begin(),
                                                   known_v.end());
  std::vector<Ipv6> v = addrs;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  for (auto _ : state) {
    std::vector<Ipv6> survivors = v;
    std::erase_if(survivors,
                  [&](const Ipv6& a) { return known.contains(a); });
    benchmark::DoNotOptimize(survivors);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AddrBatchMembershipScalar)->Arg(1 << 17);

void BM_AddrBatchMembershipMerge(benchmark::State& state) {
  const auto addrs = bench_addrs(static_cast<std::size_t>(state.range(0)));
  AddrBatch known{std::span<const Ipv6>(
      bench_addrs(static_cast<std::size_t>(state.range(0))))};
  known.sort_unique();
  AddrBatch sorted{std::span<const Ipv6>(addrs)};
  sorted.sort_unique();
  for (auto _ : state) {
    AddrBatch batch = sorted;
    batch.subtract_sorted(known);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AddrBatchMembershipMerge)->Arg(1 << 17);

// --- serving layer (DESIGN.md §13) ------------------------------------------

/// Shared fixture for the serve-path benches: one world + 3-scan service
/// run + published snapshot, and a seeded request mix — half the
/// addresses known-responsive (lookup hits), half random (misses),
/// across all four query ops.
struct ServeFixture {
  HitlistService* service = nullptr;
  serve::SnapshotManager* snaps = nullptr;
  std::vector<std::vector<std::uint8_t>> pool;
};

const ServeFixture& serve_fixture() {
  static const ServeFixture fx = [] {
    static auto world = build_test_world(42);
    ServeFixture f;
    f.service = new HitlistService(HitlistService::Config{});
    f.service->run(*world, 3);
    f.snaps = new serve::SnapshotManager();
    f.snaps->publish(serve::freeze_epoch(*f.service, *world, 2));
    const auto& rows = f.snaps->current()->responsive();
    Rng rng(9);
    f.pool.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      const Ipv6 addr = (i % 2 == 0 && !rows.empty())
                            ? rows[rng.below(rows.size())].first
                            : Ipv6::from_words(rng.next(), rng.next());
      switch (i % 4) {
        case 0: f.pool.push_back(serve::request_lookup(addr)); break;
        case 1: f.pool.push_back(serve::request_origin(addr)); break;
        case 2: f.pool.push_back(serve::request_alias(addr)); break;
        default: f.pool.push_back(serve::request_epoch_info()); break;
      }
    }
    return f;
  }();
  return fx;
}

/// Drives one engine over the fixture's request mix and reports the
/// p50/p95/p99 request latency — the serve tail is what a live client
/// feels, and a mean hides it. Also emits SIXDUST_BENCH_JSON rows so CI
/// can diff the with/without-telemetry quantiles across runs.
void run_serve_query(benchmark::State& state, const serve::QueryEngine& engine,
                     const char* name) {
  const auto& fx = serve_fixture();
  std::vector<double> lat_us;
  lat_us.reserve(1 << 16);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto response = engine.handle(fx.pool[next++ & 1023]);
    benchmark::DoNotOptimize(response);
    const auto t1 = std::chrono::steady_clock::now();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double p) {
    if (lat_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(p *
                                              static_cast<double>(lat_us.size()));
    return lat_us[std::min(lat_us.size() - 1, idx)];
  };
  state.counters["p50_us"] = pct(0.50);
  state.counters["p95_us"] = pct(0.95);
  state.counters["p99_us"] = pct(0.99);
  bench::bench_json_row(name, "p50_us", pct(0.50), "us");
  bench::bench_json_row(name, "p95_us", pct(0.95), "us");
  bench::bench_json_row(name, "p99_us", pct(0.99), "us");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeQuery(benchmark::State& state) {
  // The daemon's in-process read path: pin the current epoch snapshot,
  // dispatch one protocol request through the QueryEngine, build the
  // response frame.
  static MetricsRegistry reg;
  const serve::QueryEngine engine(serve_fixture().snaps, &reg);
  run_serve_query(state, engine, "BM_ServeQuery");
}
BENCHMARK(BM_ServeQuery);

void BM_ServeQueryTelemetry(benchmark::State& state) {
  // The same read path with the live telemetry plane attached: every
  // handled request also times itself into the per-op striped HDR
  // histogram (DESIGN.md §15). Compare against BM_ServeQuery — the
  // recording overhead budget is < 5%.
  static MetricsRegistry reg;
  static serve::LiveTelemetry* telemetry = [] {
    serve::LiveTelemetry::Config cfg;
    cfg.metrics = &reg;
    cfg.snaps = serve_fixture().snaps;
    return new serve::LiveTelemetry(cfg);  // sampler thread not started:
  }();                                     // this measures the hot path only
  serve::QueryEngine engine(serve_fixture().snaps, &reg);
  engine.set_telemetry(telemetry);
  run_serve_query(state, engine, "BM_ServeQueryTelemetry");
}
BENCHMARK(BM_ServeQueryTelemetry);

void BM_LatencyHistogramRecord(benchmark::State& state) {
  // The telemetry hot-path primitive on its own: one striped relaxed
  // record into the 512-bucket log-linear ladder.
  static LatencyHistogram hist;
  std::array<std::uint64_t, 1024> vals{};
  Rng rng(7);
  for (auto& v : vals) v = rng.next() & 0xFFFFFULL;  // ns values up to ~1ms
  std::size_t next = 0;
  for (auto _ : state) hist.record(vals[next++ & 1023]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LatencyHistogramRecord);

void BM_ServeEpochFreeze(benchmark::State& state) {
  // Cost of the epoch barrier itself: freeze the service into an
  // immutable snapshot (copy the responsive table, rebuild the aliased
  // FrozenLpm, fingerprint everything) and publish it — the work the
  // daemon adds on top of each batch step.
  static auto world = build_test_world(42);
  static HitlistService* service = [] {
    auto* s = new HitlistService(HitlistService::Config{});
    s->run(*world, 3);
    return s;
  }();
  serve::SnapshotManager snaps;
  for (auto _ : state)
    snaps.publish(serve::freeze_epoch(*service, *world, 2));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeEpochFreeze);

}  // namespace

BENCHMARK_MAIN();
