// Tests for the deterministic parallel scan engine: the core thread pool
// and parallel helpers, shard-equivalence of the arc-sharded scanner, and
// thread-count invariance of every parallelized pipeline stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "alias/apd.hpp"
#include "core/parallel.hpp"
#include "core/thread_pool.hpp"
#include "core/write_once_slots.hpp"
#include "hitlist/service.hpp"
#include "obs/trace.hpp"
#include "netbase/hash.hpp"
#include "scanner/cyclic.hpp"
#include "scanner/rate_limit.hpp"
#include "scanner/zmap6.hpp"
#include "topo/censored_network.hpp"
#include "topo/world_builder.hpp"
#include "traceroute/yarrp.hpp"

namespace sixdust {
namespace {

TEST(ThreadPool, ResolveAndCreate) {
  EXPECT_EQ(ThreadPool::resolve(1), 1u);
  EXPECT_EQ(ThreadPool::resolve(4), 4u);
  EXPECT_GE(ThreadPool::resolve(0), 1u);  // hardware concurrency

  EXPECT_EQ(ThreadPool::create(1), nullptr);  // sequential needs no pool
  auto pool = ThreadPool::create(4);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 4u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < kTasks; ++i)
    tasks.push_back([&hits, i] { ++hits[i]; });
  pool.run(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedRunDoesNotDeadlock) {
  // A task submitting its own batch must not deadlock even when the batch
  // count exceeds the worker count — the waiter helps drain the queue.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 3; ++i)
    outer.push_back([&pool, &total] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) inner.push_back([&total] { ++total; });
      pool.run(std::move(inner));
    });
  pool.run(std::move(outer));
  EXPECT_EQ(total.load(), 12);
}

TEST(ThreadPoolNestedBatch, HelperDrainsOwnBatchNotSiblings) {
  // Three sibling tasks on two threads: whichever thread runs t_nested
  // must execute its nested batch itself. The old any-batch helper could
  // instead pick up t_waiter (a sibling that only finishes once t_nested
  // completed) and livelock.
  ThreadPool pool(2);
  std::atomic<bool> nested_ran{false};
  std::atomic<bool> release{false};
  std::vector<std::function<void()>> batch;
  batch.push_back([&] {  // occupies one thread until the story resolves
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  batch.push_back([&] {  // t_nested
    pool.run({[&] { nested_ran.store(true, std::memory_order_release); }});
    release.store(true, std::memory_order_release);
  });
  batch.push_back([&] {  // t_waiter: depends on t_nested's completion
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  pool.run(std::move(batch));
  EXPECT_TRUE(nested_ran.load());
}

TEST(Parallel, ChunkRangeTilesExactly) {
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{100}}) {
    for (std::size_t chunks : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      std::size_t expected_lo = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = chunk_range(n, chunks, c);
        EXPECT_EQ(lo, expected_lo);
        EXPECT_LE(lo, hi);
        expected_lo = hi;
      }
      EXPECT_EQ(expected_lo, n);
    }
  }
}

TEST(Parallel, ParallelForCoversAllItems) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(&pool, kN, parallel_chunks(&pool, kN),
               [&](std::size_t, std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++hits[i];
               });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, OrderedMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out = ordered_map<std::size_t>(
      &pool, 200, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, OrderedReduceMatchesSequentialFold) {
  // String concatenation is order-sensitive, so this fails for any merge
  // ordering other than strict index order.
  auto digit = [](std::size_t i) { return std::to_string(i) + ","; };
  auto merge = [](std::string& acc, std::string& p) { acc += p; };
  const auto sequential =
      ordered_reduce(nullptr, 50, std::string{}, digit, merge);
  ThreadPool pool(4);
  const auto parallel =
      ordered_reduce(&pool, 50, std::string{}, digit, merge);
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelWriteOnceSlots, ConcurrentGetPublishesOneValuePerSlot) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kSlots = 300;  // segments 0..8
  WriteOnceSlots<std::vector<std::uint64_t>> slots;
  std::vector<const std::vector<std::uint64_t>*> seen(kThreads * kSlots);
  ThreadPool pool(kThreads);
  parallel_for(&pool, kThreads, kThreads,
               [&](std::size_t t, std::size_t, std::size_t) {
                 for (std::uint64_t k = 0; k < kSlots; ++k) {
                   const std::uint64_t i = t % 2 == 0 ? k : kSlots - 1 - k;
                   seen[t * kSlots + i] = &slots.get(i, [i] {
                     return std::vector<std::uint64_t>(3, i);
                   });
                 }
               });
  // A published slot is never built again.
  const auto unused = [] { return std::vector<std::uint64_t>{}; };
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    ASSERT_EQ(&slots.get(i, unused), seen[i]) << i;
    EXPECT_EQ(*seen[i], std::vector<std::uint64_t>(3, i));
    for (std::size_t t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[t * kSlots + i], seen[i]) << "slot " << i;
  }
  // Indices far past the others, at both ends of their segment.
  for (const std::uint64_t i : {std::uint64_t{1} << 20,
                                (std::uint64_t{1} << 20) - 1,
                                (std::uint64_t{1} << 21) - 2}) {
    EXPECT_EQ(slots.get(i, [i] { return std::vector<std::uint64_t>{i}; }),
              std::vector<std::uint64_t>{i});
    EXPECT_EQ(slots.get(i, unused), std::vector<std::uint64_t>{i});
  }
  EXPECT_THROW((void)slots.get((std::uint64_t{1} << 32) - 1, unused),
               std::out_of_range);
}

// --- scan-stage equivalence --------------------------------------------------

void expect_same_scan(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.proto, b.proto);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.duration_seconds, b.duration_seconds);
  ASSERT_EQ(a.responsive.size(), b.responsive.size());
  for (std::size_t i = 0; i < a.responsive.size(); ++i) {
    const ScanRecord& ra = a.responsive[i];
    const ScanRecord& rb = b.responsive[i];
    EXPECT_EQ(ra.target, rb.target) << "record " << i;
    EXPECT_EQ(ra.hop_limit, rb.hop_limit);
    EXPECT_EQ(ra.tcp, rb.tcp);
    EXPECT_EQ(ra.dns.has_value(), rb.dns.has_value());
    if (ra.dns && rb.dns) {
      EXPECT_EQ(ra.dns->response_count, rb.dns->response_count);
      EXPECT_EQ(ra.dns->rcode, rb.dns->rcode);
    }
  }
}

// --- multi-protocol scan -----------------------------------------------------

/// The single-protocol scan loop Zmap6 ran before its resolution pass: a
/// blocklist lookup per target and protocol, and every probe asking the
/// world directly.
ScanResult reference_scan(const World& w, const Zmap6& zmap,
                          std::span<const Ipv6> targets, Proto proto,
                          ScanDate date) {
  const Zmap6::Config& cfg = zmap.config();
  ScanResult r;
  r.proto = proto;
  r.date = date;
  r.targets = targets.size();
  const CyclicPermutation perm(targets.size(),
                               hash_combine(cfg.seed, proto_index(proto)));
  const auto arc = perm.shard_arc(0, 1);
  std::uint64_t cur = perm.cycle_element(arc.begin);
  for (std::uint64_t j = arc.begin; j < arc.end;
       ++j, cur = perm.cycle_advance(cur)) {
    const std::uint64_t index = perm.cycle_value(cur);
    if (index >= targets.size()) continue;
    const Ipv6& t = targets[index];
    if (cfg.blocklist != nullptr && cfg.blocklist->covers(t)) {
      ++r.blocked;
      continue;
    }
    bool answered = false;
    for (int attempt = 0; attempt <= cfg.retries && !answered; ++attempt) {
      ++r.probes_sent;
      const std::uint64_t h = hash_combine(
          hash_of(t, cfg.seed),
          (static_cast<std::uint64_t>(date.index) << 16) |
              (static_cast<std::uint64_t>(proto_index(proto)) << 8) |
              static_cast<std::uint64_t>(attempt));
      if (cfg.loss > 0 && unit_from_hash(h) < cfg.loss) continue;
      auto rec = zmap.probe_one(w, t, proto, date);
      if (!rec) break;
      r.responsive.push_back(std::move(*rec));
      answered = true;
    }
  }
  r.duration_seconds = scan_duration_seconds(r.probes_sent, cfg.pps);
  return r;
}

TEST(Zmap6, MultiProtocolScanMatchesFiveScans) {
  const auto world = build_test_world(77);
  std::vector<KnownAddress> known;
  world->enumerate_known(ScanDate{2}, known);
  std::vector<Ipv6> targets;
  for (const auto& k : known) targets.push_back(k.addr);
  // Silent padding, and censored space whose UDP/53 probes draw GFW
  // injections during an event (scan 35) even where no host answers.
  for (std::uint64_t i = 0; i < 600; ++i) {
    targets.push_back(pfx("2600:3c00::/32").random_address(0xF111 + i));
    targets.push_back(pfx("240e::/24").random_address(0x61 + i));
  }
  const PrefixSet blocklist(std::vector<Prefix>{pfx("2600:3c00::/34"),
                                                pfx("240e:8000::/25")});
  for (const int d : {2, 35}) {
    const ScanDate date{d};
    for (const int retries : {0, 1}) {
      Zmap6::Config cfg{.seed = 3, .loss = 0.01, .retries = retries};
      cfg.blocklist = &blocklist;
      const Zmap6 sequential(cfg);
      std::vector<ScanResult> want;
      for (Proto p : kAllProtos)
        want.push_back(reference_scan(*world, sequential, targets, p, date));
      EXPECT_GT(want[proto_index(Proto::Udp53)].responsive.size(), 0u);
      EXPECT_GT(want[proto_index(Proto::Icmp)].blocked, 0u);
      for (const unsigned threads : {1u, 2u, 7u}) {
        MetricsRegistry multi_metrics;
        MetricsRegistry single_metrics;
        Zmap6::Config c = cfg;
        c.threads = threads;
        c.metrics = &multi_metrics;
        const Zmap6 multi(c);
        c.metrics = &single_metrics;
        const Zmap6 single(c);
        const auto got = multi.scan(*world, targets, kAllProtoMask, date);
        ASSERT_EQ(got.size(), kAllProtos.size());
        for (Proto p : kAllProtos) {
          SCOPED_TRACE(proto_name(p) + " date " + std::to_string(d) +
                       " retries " + std::to_string(retries) + " threads " +
                       std::to_string(threads));
          const auto& ref = want[static_cast<std::size_t>(proto_index(p))];
          expect_same_scan(got[static_cast<std::size_t>(proto_index(p))], ref);
          expect_same_scan(single.scan(*world, targets, p, date), ref);
          const std::string label = "{proto=" + proto_token(p) + "}";
          for (const MetricsRegistry* reg : {&multi_metrics, &single_metrics}) {
            const auto snap = reg->snapshot();
            EXPECT_EQ(snap.counter_value("scanner.probes_sent" + label),
                      ref.probes_sent);
            EXPECT_EQ(snap.counter_value("scanner.answered" + label),
                      ref.responsive.size());
            EXPECT_EQ(snap.counter_value("scanner.blocked" + label),
                      ref.blocked);
            EXPECT_EQ(snap.counter_value("scanner.scans" + label), 1u);
          }
        }
      }
      // A subset of the protocols yields just their results, in order.
      const auto pair = sequential.scan(
          *world, targets, proto_bit(Proto::Udp443) | proto_bit(Proto::Tcp80),
          date);
      ASSERT_EQ(pair.size(), 2u);
      expect_same_scan(pair[0], want[proto_index(Proto::Tcp80)]);
      expect_same_scan(pair[1], want[proto_index(Proto::Udp443)]);
    }
  }
}

class ParallelScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = build_test_world(77).release();
    std::vector<KnownAddress> known;
    world_->enumerate_known(ScanDate{0}, known);
    for (const auto& k : known) targets_.push_back(k.addr);
    // Pad well past the parallel-dispatch threshold with addresses that
    // are mostly unresponsive (they still consume probes and loss draws).
    for (std::uint64_t i = 0; targets_.size() < 2048; ++i)
      targets_.push_back(pfx("2600:3c00::/32").random_address(0xF111 + i));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    targets_.clear();
  }

  static const World* world_;
  static std::vector<Ipv6> targets_;
};

const World* ParallelScanTest::world_ = nullptr;
std::vector<Ipv6> ParallelScanTest::targets_;

TEST_F(ParallelScanTest, ShardConcatenationMatchesSequentialScan) {
  Zmap6 zmap(Zmap6::Config{.seed = 3, .loss = 0.02, .retries = 1});
  const auto full = zmap.scan(*world_, targets_, Proto::Icmp, ScanDate{2});
  for (std::uint32_t shards : {2u, 3u, 8u}) {
    ScanResult concat;
    concat.proto = full.proto;
    concat.date = full.date;
    concat.targets = targets_.size();
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto part =
          zmap.scan_shard(*world_, targets_, Proto::Icmp, ScanDate{2}, s, shards);
      concat.blocked += part.blocked;
      concat.probes_sent += part.probes_sent;
      concat.responsive.insert(concat.responsive.end(),
                               part.responsive.begin(), part.responsive.end());
    }
    concat.duration_seconds = full.duration_seconds;
    expect_same_scan(concat, full);
  }
}

TEST_F(ParallelScanTest, ScanIsThreadCountInvariant) {
  Zmap6 sequential(Zmap6::Config{.seed = 3, .loss = 0.02, .retries = 1});
  const auto base =
      sequential.scan(*world_, targets_, Proto::Tcp80, ScanDate{1});
  EXPECT_GT(base.responsive.size(), 0u);
  for (unsigned threads : {2u, 8u}) {
    Zmap6 parallel(
        Zmap6::Config{.seed = 3, .loss = 0.02, .retries = 1, .threads = threads});
    const auto out =
        parallel.scan(*world_, targets_, Proto::Tcp80, ScanDate{1});
    expect_same_scan(out, base);
  }
}

TEST_F(ParallelScanTest, ApdDetectionIsThreadCountInvariant) {
  AliasDetector sequential(AliasDetector::Config{});
  const auto base = sequential.detect(*world_, targets_, ScanDate{2});
  EXPECT_GT(base.candidates_tested, 0u);

  AliasDetector parallel(AliasDetector::Config{.threads = 8});
  const auto out = parallel.detect(*world_, targets_, ScanDate{2});
  EXPECT_EQ(out.aliased, base.aliased);
  EXPECT_EQ(out.candidates_tested, base.candidates_tested);
  EXPECT_EQ(out.probes_sent, base.probes_sent);

  // The stateful (history-merging) path must agree round for round.
  AliasDetector seq_hist(AliasDetector::Config{});
  AliasDetector par_hist(AliasDetector::Config{.threads = 4});
  for (int i = 0; i < 3; ++i) {
    const auto s = seq_hist.detect(*world_, targets_, ScanDate{i});
    const auto p = par_hist.detect(*world_, targets_, ScanDate{i});
    EXPECT_EQ(p.aliased, s.aliased) << "round " << i;
    EXPECT_EQ(p.probes_sent, s.probes_sent);
  }
}

TEST_F(ParallelScanTest, YarrpTraceIsThreadCountInvariant) {
  Yarrp sequential(Yarrp::Config{.target_budget = 600});
  const auto base = sequential.trace(*world_, targets_, ScanDate{1});
  EXPECT_GT(base.responsive_hops.size(), 0u);
  for (unsigned threads : {2u, 8u}) {
    Yarrp parallel(Yarrp::Config{.target_budget = 600, .threads = threads});
    const auto out = parallel.trace(*world_, targets_, ScanDate{1});
    EXPECT_EQ(out.responsive_hops, base.responsive_hops);
    EXPECT_EQ(out.last_hops_unreachable, base.last_hops_unreachable);
    EXPECT_EQ(out.targets_traced, base.targets_traced);
    EXPECT_EQ(out.probes_sent, base.probes_sent);
  }
}

// The path toward `t` as a std::vector, checking the border hop against the
// rule World::path_to used before Deployment::border_router: a censored
// network's rotating router, else one router per /48 in the first prefix.
std::vector<World::Hop> reference_path(const World& world, const Ipv6& t,
                                       ScanDate d) {
  const World::Path path = world.path_to(t, d);
  std::vector<World::Hop> hops(path.hops().begin(), path.hops().end());
  if (const Deployment* dep = world.deployment_of(t)) {
    const auto* cn = dynamic_cast<const CensoredNetwork*>(dep);
    const Ipv6 border =
        cn != nullptr ? cn->border_router(t, d)
                      : dep->prefixes().front().random_address(hash_combine(
                            hash_of(Prefix::mask(t, 48)), 0xB02D));
    EXPECT_GE(hops.size(), 2u);
    EXPECT_EQ(hops[hops.size() - 2].addr, border) << t.str();
  }
  return hops;
}

// The budget-limited sample Yarrp traces, in permuted order.
std::vector<Ipv6> reference_sample(std::span<const Ipv6> targets, ScanDate date,
                                   const Yarrp::Config& cfg) {
  CyclicPermutation perm(targets.empty() ? 1 : targets.size(),
                         hash_combine(cfg.seed, date.index));
  const std::size_t count = std::min(targets.size(), cfg.target_budget);
  std::vector<Ipv6> sample;
  for (std::size_t k = 0; k < count; ++k) sample.push_back(targets[perm.next()]);
  return sample;
}

// Yarrp::trace before AddrIndex, kept as the reference: the same sample,
// split into `chunks` slices that each dedup through an unordered_set in
// first-seen order, then merged in slice order through another one.
Yarrp::TraceResult reference_trace(const World& world,
                                   std::span<const Ipv6> targets,
                                   ScanDate date, const Yarrp::Config& cfg,
                                   std::size_t chunks) {
  const std::vector<Ipv6> sample = reference_sample(targets, date, cfg);
  const std::size_t count = sample.size();
  Yarrp::TraceResult result;
  std::unordered_set<Ipv6, Ipv6Hasher> merged;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = chunk_range(count, chunks, c);
    Yarrp::TraceResult part;
    std::unordered_set<Ipv6, Ipv6Hasher> seen;
    for (std::size_t k = lo; k < hi; ++k) {
      ++part.targets_traced;
      const auto path = reference_path(world, sample[k], date);
      part.probes_sent += std::min(path.size(),
                                   static_cast<std::size_t>(cfg.max_ttl));
      const World::Hop* last_responsive = nullptr;
      bool target_responded = false;
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (!path[i].responds) continue;
        if (i + 1 == path.size()) {
          target_responded = true;
        } else {
          last_responsive = &path[i];
        }
        if (seen.insert(path[i].addr).second)
          part.responsive_hops.push_back(path[i].addr);
      }
      if (!target_responded && last_responsive != nullptr)
        part.last_hops_unreachable.push_back(last_responsive->addr);
    }
    result.targets_traced += part.targets_traced;
    result.probes_sent += part.probes_sent;
    for (const Ipv6& hop : part.responsive_hops)
      if (merged.insert(hop).second) result.responsive_hops.push_back(hop);
    result.last_hops_unreachable.insert(result.last_hops_unreachable.end(),
                                        part.last_hops_unreachable.begin(),
                                        part.last_hops_unreachable.end());
  }
  return result;
}

TEST_F(ParallelScanTest, YarrpMatchesNaiveReference) {
  // Input 2: every target twice, so the permuted sample holds pairs that
  // land in different slices.
  std::vector<Ipv6> duplicated(targets_.begin(), targets_.begin() + 1024);
  duplicated.insert(duplicated.end(), targets_.begin(), targets_.begin() + 1024);
  {
    const auto sample = reference_sample(duplicated, ScanDate{1},
                                         Yarrp::Config{.target_budget = 5000});
    std::unordered_map<Ipv6, std::size_t, Ipv6Hasher> first_slice;
    std::size_t straddling = 0;
    for (std::size_t c = 0; c < 7; ++c) {
      const auto [lo, hi] = chunk_range(sample.size(), 7, c);
      for (std::size_t k = lo; k < hi; ++k) {
        const auto [it, fresh] = first_slice.try_emplace(sample[k], c);
        if (!fresh && it->second != c) ++straddling;
      }
    }
    EXPECT_GT(straddling, 100u);
  }
  // Input 3: targets interleaved with router hops seen on their paths (the
  // campus gateway, transit and border routers, censored networks' rotating
  // routers), so a router is traced as a target after, or before, it was
  // discovered as a hop.
  std::vector<Ipv6> routers_as_targets;
  for (const Ipv6& t : targets_) {
    routers_as_targets.push_back(t);
    const World::Path path = world_->path_to(t, ScanDate{1});
    const auto hops = path.hops();
    if (hops.size() >= 2) routers_as_targets.push_back(hops[hops.size() - 2].addr);
    routers_as_targets.push_back(hops.front().addr);
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Ipv6 censored = pfx("240e::/24").random_address(0xC3 + i);
    routers_as_targets.push_back(censored);
    const World::Path path = world_->path_to(censored, ScanDate{1});
    routers_as_targets.push_back(path.hops()[path.hops().size() - 2].addr);
  }

  const std::vector<std::pair<const char*, std::span<const Ipv6>>> inputs = {
      {"fixture", targets_},
      {"duplicated", duplicated},
      {"routers_as_targets", routers_as_targets}};
  for (const auto& [label, input] : inputs) {
    for (unsigned threads : {1u, 2u, 7u}) {
      const Yarrp::Config cfg{.target_budget = 5000, .threads = threads};
      const auto got = Yarrp(cfg).trace(*world_, input, ScanDate{1});
      const std::size_t chunks = threads == 1 ? 1 : threads;
      for (const std::size_t ref_chunks : {std::size_t{1}, chunks}) {
        SCOPED_TRACE(std::string(label) + " threads " +
                     std::to_string(threads) + " reference chunks " +
                     std::to_string(ref_chunks));
        const auto want =
            reference_trace(*world_, input, ScanDate{1}, cfg, ref_chunks);
        EXPECT_GT(want.responsive_hops.size(), 0u);
        EXPECT_EQ(got.responsive_hops, want.responsive_hops);
        EXPECT_EQ(got.last_hops_unreachable, want.last_hops_unreachable);
        EXPECT_EQ(got.targets_traced, want.targets_traced);
        EXPECT_EQ(got.probes_sent, want.probes_sent);
      }
    }
  }
}

TEST(ParallelService, FullRunIsThreadCountInvariant) {
  // End-to-end determinism: the whole service pipeline over ten scans must
  // write an identical History no matter the thread count.
  auto world = build_test_world(78);
  HitlistService::Config seq_cfg;
  seq_cfg.traceroute.target_budget = 2000;
  HitlistService::Config par_cfg = seq_cfg;
  par_cfg.threads = 8;

  HitlistService sequential(seq_cfg);
  HitlistService parallel(par_cfg);
  sequential.run(*world, 10);
  parallel.run(*world, 10);

  const auto& se = sequential.history().entries();
  const auto& pe = parallel.history().entries();
  ASSERT_EQ(se.size(), pe.size());
  for (std::size_t i = 0; i < se.size(); ++i) {
    EXPECT_EQ(pe[i].scan_index, se[i].scan_index);
    EXPECT_EQ(pe[i].responsive, se[i].responsive) << "scan " << i;
    EXPECT_EQ(pe[i].input_total, se[i].input_total);
    EXPECT_EQ(pe[i].scan_targets, se[i].scan_targets);
    EXPECT_EQ(pe[i].aliased_prefixes, se[i].aliased_prefixes);
    EXPECT_EQ(pe[i].duration_days, se[i].duration_days);
  }
  EXPECT_EQ(parallel.aliased_list(), sequential.aliased_list());
  EXPECT_EQ(parallel.unresponsive_pool(), sequential.unresponsive_pool());
}

TEST(ParallelService, ServiceThreadsOverrideStageThreads) {
  // The service's thread count is the only one: threads = 1 runs every
  // stage on the sequential path even when the stage configs ask for more.
  auto world = build_test_world(78);
  TraceRecorder tracer;
  HitlistService::Config cfg;
  cfg.threads = 1;
  cfg.scanner.threads = 4;
  cfg.apd.threads = 4;
  cfg.traceroute.threads = 4;
  cfg.traceroute.target_budget = 2000;
  cfg.tracer = &tracer;
  HitlistService service(cfg);
  service.step(*world, ScanDate{0});

  std::size_t shard_spans = 0;
  for (const auto& span : tracer.collect()) {
    if (span.name != "scanner.shard") continue;
    ++shard_spans;
    for (const auto& [key, value] : span.attrs) {
      if (key == "shards") {
        EXPECT_EQ(value, "1");
      }
    }
  }
  EXPECT_GT(shard_spans, 0u);
}

TEST(ParallelService, ConcurrentWorldProbesAreSafe) {
  // Hammer the shared World state (PMTU map, sparse-/64 tables, ISP
  // pools) from many threads on one date — the TSan preset runs this test.
  auto world = build_test_world(79);
  std::vector<KnownAddress> known;
  world->enumerate_known(ScanDate{3}, known);
  ThreadPool pool(8);
  std::atomic<std::size_t> responsive{0};
  parallel_for(&pool, known.size(), 64,
               [&](std::size_t, std::size_t lo, std::size_t hi) {
                 std::size_t local = 0;
                 for (std::size_t i = lo; i < hi; ++i)
                   for (Proto p : kAllProtos)
                     if (world->probe(known[i].addr, p, ScanDate{3})) ++local;
                 responsive += local;
               });
  std::size_t expected = 0;
  for (const auto& k : known)
    for (Proto p : kAllProtos)
      if (world->probe(k.addr, p, ScanDate{3})) ++expected;
  EXPECT_EQ(responsive.load(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(ParallelService, ConcurrentWorldProbesAcrossDatesAreSafe) {
  // Probes of different dates may be in flight at once. Every chunk walks
  // the dates in its own order, switching date on each probe, and every
  // answer must equal a sequential pass over a freshly built world.
  constexpr int kDates = 8;
  auto world = build_test_world(79);
  std::vector<KnownAddress> known;
  world->enumerate_known(ScanDate{3}, known);
  ASSERT_FALSE(known.empty());
  const std::size_t n = known.size();
  // Answers of address i on date d, one bit per protocol, at d * n + i.
  auto probe_into = [n](const World& w, std::size_t i, const Ipv6& a,
                        Proto p, int date, std::vector<ProtoMask>& out) {
    if (w.probe(a, p, ScanDate{date}))
      out[static_cast<std::size_t>(date) * n + i] |= proto_bit(p);
  };

  std::vector<ProtoMask> concurrent(kDates * n, 0);
  ThreadPool pool(8);
  parallel_for(&pool, n, 64,
               [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i)
                   for (Proto p : kAllProtos)
                     for (int k = 0; k < kDates; ++k) {
                       // Odd chunks walk backwards; each starts elsewhere.
                       const int step = chunk % 2 == 0 ? k : kDates - 1 - k;
                       const int date =
                           static_cast<int>((chunk + i + step) % kDates);
                       probe_into(*world, i, known[i].addr, p, date,
                                  concurrent);
                     }
               });

  const auto fresh = build_test_world(79);
  std::vector<ProtoMask> sequential(kDates * n, 0);
  for (int date = 0; date < kDates; ++date)
    for (std::size_t i = 0; i < n; ++i)
      for (Proto p : kAllProtos)
        probe_into(*fresh, i, known[i].addr, p, date, sequential);

  std::size_t differ = 0;
  for (std::size_t j = 0; j < sequential.size(); ++j)
    if (concurrent[j] != sequential[j]) ++differ;
  EXPECT_EQ(differ, 0u) << "of " << sequential.size() << " answer masks";
  // The dates must not be interchangeable, or a mixed-up date would pass.
  std::size_t date_dependent = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (int date = 1; date < kDates; ++date)
      if (sequential[static_cast<std::size_t>(date) * n + i] !=
          sequential[i]) {
        ++date_dependent;
        break;
      }
  EXPECT_GT(date_dependent, 0u);
}

}  // namespace
}  // namespace sixdust
