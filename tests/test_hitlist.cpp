// Tests for the hitlist module: input accumulation, source collection,
// history bookkeeping (counts / cumulative / churn / cleaning), and the
// full service pipeline on a small world.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "hitlist/archive.hpp"
#include "hitlist/discovery.hpp"
#include "hitlist/service.hpp"
#include "netbase/rng.hpp"
#include "serve/snapshot.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

TEST(InputDb, AccumulatesWithTagsAndFirstSeen) {
  InputDb db;
  EXPECT_TRUE(db.add(ip("2001:db8::1"), kSrcDnsAaaa, 3));
  EXPECT_FALSE(db.add(ip("2001:db8::1"), kSrcTraceroute, 7));
  EXPECT_TRUE(db.add(ip("2001:db8::2"), kSrcRdns, 7));
  EXPECT_EQ(db.size(), 2u);
  const auto* meta = db.find(ip("2001:db8::1"));
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->first_seen, 3);
  EXPECT_EQ(meta->tags, kSrcDnsAaaa | kSrcTraceroute);
  EXPECT_EQ(db.addresses()[0], ip("2001:db8::1"));
  EXPECT_FALSE(db.contains(ip("2001:db8::3")));
  EXPECT_EQ(db.row(ip("2001:db8::3")), InputDb::kNoRow);
}

// Adds `addrs` to an InputDb and to a std::unordered_map reference (row by
// first insertion, tags ORed) and checks add/row/contains/find against it,
// plus `absent` addresses that were never added.
void expect_input_db_matches_reference(const std::vector<Ipv6>& addrs,
                                       const std::vector<Ipv6>& absent) {
  InputDb db;
  std::unordered_map<Ipv6, std::uint32_t, Ipv6Hasher> rows;
  std::unordered_map<Ipv6, std::uint16_t, Ipv6Hasher> tags;
  for (std::size_t k = 0; k < addrs.size(); ++k) {
    const Ipv6& a = addrs[k];
    const auto tag = static_cast<std::uint16_t>(1u << (k % 8));
    const bool fresh =
        rows.try_emplace(a, static_cast<std::uint32_t>(rows.size())).second;
    tags[a] |= tag;
    ASSERT_EQ(db.add(a, tag, static_cast<int>(k)), fresh) << k;
    ASSERT_EQ(db.size(), rows.size());
  }
  for (const Ipv6& a : addrs) {
    const std::uint32_t r = db.row(a);
    ASSERT_EQ(r, rows.at(a)) << a.str();
    EXPECT_TRUE(db.contains(a));
    EXPECT_EQ(db.addresses()[r], a);
    EXPECT_EQ(db.meta(r).tags, tags.at(a));
    EXPECT_EQ(db.find(a), &db.meta(r));
  }
  for (const Ipv6& a : absent) {
    ASSERT_FALSE(rows.contains(a));
    EXPECT_EQ(db.row(a), InputDb::kNoRow);
    EXPECT_FALSE(db.contains(a));
    EXPECT_EQ(db.find(a), nullptr);
  }
}

TEST(InputDb, MatchesMapReferenceAcrossGrowthPoints) {
  // The row index doubles when a row would take it past half full: sizes
  // around 1024 rows cross one doubling. Each address is added twice.
  for (const std::size_t n : {0u, 1u, 1023u, 1024u, 1025u}) {
    SCOPED_TRACE(n);
    std::vector<Ipv6> addrs;
    for (std::size_t i = 0; i < n; ++i)
      addrs.push_back(pfx("2001:db8::/32").random_address(0x1DB + i));
    for (std::size_t i = 0; i < n; ++i) addrs.push_back(addrs[i]);
    std::vector<Ipv6> absent;
    for (std::size_t i = 0; i < 64; ++i)
      absent.push_back(pfx("2001:db9::/32").random_address(i));
    expect_input_db_matches_reference(addrs, absent);
  }
}

TEST(InputDb, MatchesMapReferenceOnRandomAndCollidingAddresses) {
  Rng rng(0xADD1);
  std::vector<Ipv6> addrs;
  for (std::size_t i = 0; i < 100000; ++i) {
    // One in eight draws repeats an earlier address.
    if (i % 8 == 7) {
      addrs.push_back(addrs[rng.next() % addrs.size()]);
    } else {
      addrs.push_back(Ipv6::from_words(rng.next(), rng.next()));
    }
  }
  // Addresses that share their low 64 bits, or differ in one bit only.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    addrs.push_back(Ipv6::from_words(0x20010db800000000ULL + (i << 16), 1));
    addrs.push_back(Ipv6::from_words(0x20010db8ffff0000ULL,
                                     std::uint64_t{1} << (i % 64)));
  }
  // Addresses whose hashes agree in their low 16 bits: one probe chain at
  // every table size up to 2^16 slots, wrapping at the table's end.
  std::vector<Ipv6> absent;
  for (std::uint64_t i = 0, found = 0; found < 96; ++i) {
    const Ipv6 a = Ipv6::from_words(0x2a00000000000000ULL, i);
    if ((hash_of(a) & 0xFFFF) != 0xFFFF) continue;
    (found++ % 3 == 0 ? absent : addrs).push_back(a);
  }
  expect_input_db_matches_reference(addrs, absent);
}

History::Entry entry_of(int scan,
                        std::vector<std::pair<Ipv6, ProtoMask>> rows) {
  History::Entry e;
  e.scan_index = scan;
  e.responsive = std::move(rows);
  return e;
}

TEST(HistoryStore, CountsPerProtocol) {
  History h;
  h.record(entry_of(0, {{ip("::1"), proto_bit(Proto::Icmp)},
                        {ip("::2"), static_cast<ProtoMask>(
                                        proto_bit(Proto::Icmp) |
                                        proto_bit(Proto::Tcp80))}}));
  const auto c = h.counts(0);
  EXPECT_EQ(c.any, 2u);
  EXPECT_EQ(c.per_proto[proto_index(Proto::Icmp)], 2u);
  EXPECT_EQ(c.per_proto[proto_index(Proto::Tcp80)], 1u);
  EXPECT_EQ(c.per_proto[proto_index(Proto::Udp53)], 0u);
}

TEST(HistoryStore, CumulativeUnionsScans) {
  History h;
  h.record(entry_of(0, {{ip("::1"), proto_bit(Proto::Icmp)}}));
  h.record(entry_of(1, {{ip("::2"), proto_bit(Proto::Icmp)}}));
  h.record(entry_of(2, {{ip("::1"), proto_bit(Proto::Tcp80)}}));
  const auto c = h.cumulative(2);
  EXPECT_EQ(c.any, 2u);
  EXPECT_EQ(c.per_proto[proto_index(Proto::Icmp)], 2u);
  EXPECT_EQ(c.per_proto[proto_index(Proto::Tcp80)], 1u);
  EXPECT_EQ(h.cumulative(1).any, 2u);
  EXPECT_EQ(h.cumulative(0).any, 1u);
}

TEST(HistoryStore, ChurnDecomposition) {
  History h;
  h.record(entry_of(0, {{ip("::1"), 1}, {ip("::2"), 1}}));
  h.record(entry_of(1, {{ip("::2"), 1}, {ip("::3"), 1}}));
  h.record(entry_of(2, {{ip("::1"), 1}, {ip("::3"), 1}, {ip("::4"), 1}}));
  const auto ch = h.churn(2);
  EXPECT_EQ(ch.completely_new, 1u);  // ::4
  EXPECT_EQ(ch.recurring, 1u);       // ::1 (seen at 0, absent at 1)
  EXPECT_EQ(ch.stable, 1u);          // ::3
  EXPECT_EQ(ch.lost, 1u);            // ::2
}

TEST(HistoryStore, AlwaysResponsive) {
  History h;
  h.record(entry_of(0, {{ip("::1"), 1}, {ip("::2"), 1}}));
  h.record(entry_of(1, {{ip("::1"), 1}}));
  EXPECT_EQ(h.always_responsive(), 1u);
}

TEST(HistoryStore, CleaningStripsUdp53OfTaintedAddresses) {
  History h;
  const Ipv6 injected = ip("240e::1");
  const Ipv6 dual = ip("240e::2");  // injected but also ICMP-responsive
  h.record(entry_of(
      0, {{injected, proto_bit(Proto::Udp53)},
          {dual, static_cast<ProtoMask>(proto_bit(Proto::Udp53) |
                                        proto_bit(Proto::Icmp))}}));
  GfwFilter filter;
  ScanResult scan;
  scan.proto = Proto::Udp53;
  scan.date = ScanDate{0};
  DnsObservation obs;
  obs.teredo_aaaa = true;
  obs.response_count = 2;
  for (const Ipv6& a : {injected, dual}) {
    ScanRecord rec;
    rec.target = a;
    rec.dns = obs;
    scan.responsive.push_back(rec);
  }
  filter.observe_scan(scan);

  const auto published = h.counts(0);
  const auto cleaned = h.counts(0, &filter);
  EXPECT_EQ(published.any, 2u);
  EXPECT_EQ(published.per_proto[proto_index(Proto::Udp53)], 2u);
  EXPECT_EQ(cleaned.per_proto[proto_index(Proto::Udp53)], 0u);
  // The dual-responsive target stays in the hitlist (paper's rule).
  EXPECT_EQ(cleaned.any, 1u);
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = build_test_world(51).release();
    HitlistService::Config cfg;
    cfg.traceroute.target_budget = 4000;
    service_ = new HitlistService(cfg);
    for (int i = 0; i < 12; ++i) service_->step(*world_, ScanDate{i});
  }
  static void TearDownTestSuite() {
    delete service_;
    delete world_;
  }
  static const World* world_;
  static HitlistService* service_;
};

const World* ServiceTest::world_ = nullptr;
HitlistService* ServiceTest::service_ = nullptr;

TEST_F(ServiceTest, InputGrowsMonotonically) {
  const auto& entries = service_->history().entries();
  ASSERT_EQ(entries.size(), 12u);
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_GE(entries[i].input_total, entries[i - 1].input_total);
  EXPECT_GT(entries.back().input_total, entries.front().input_total);
}

TEST_F(ServiceTest, AliasedAddressesAreNeverScanned) {
  // No responsive address may sit inside a detected aliased prefix.
  for (const auto& e : service_->history().entries()) {
    for (const auto& [a, mask] : e.responsive)
      EXPECT_FALSE(service_->aliased().covers(a)) << a.str();
  }
  EXPECT_GT(service_->aliased_list().size(), 10u);
}

TEST_F(ServiceTest, AliasedDetectionMatchesGroundTruthUnits) {
  // Every detected aliased prefix must be backed by a fully-responsive
  // ground-truth region (no false positives).
  const ScanDate d{11};
  for (const auto& p : service_->aliased_list()) {
    const auto probe = p.random_address(0x600d);
    const auto h = world_->truth_host(probe, d);
    EXPECT_TRUE(h.has_value()) << p.str();
  }
}

TEST_F(ServiceTest, ThirtyDayFilterExcludesAndNeverRetests) {
  EXPECT_GT(service_->unresponsive_pool().size(), 100u);
  // Excluded addresses never appear as scan targets again.
  const auto& pool = service_->unresponsive_pool();
  const std::unordered_set<Ipv6, Ipv6Hasher> pool_set(pool.begin(),
                                                      pool.end());
  const auto targets = service_->eligible_targets();
  for (const auto& t : targets) EXPECT_FALSE(pool_set.contains(t));
}

TEST_F(ServiceTest, NewlyExcludedCountsSumToExclusionPool) {
  HitlistService svc{HitlistService::Config{}};
  std::size_t total = 0;
  std::size_t steps_with_exclusions = 0;
  for (int i = 0; i < 8; ++i) {
    const auto outcome = svc.step(*world_, ScanDate{i});
    total += outcome.newly_excluded;
    if (outcome.newly_excluded > 0) ++steps_with_exclusions;
    // The running pool size is exactly the sum of the per-step deltas.
    EXPECT_EQ(total, outcome.excluded_total);
  }
  EXPECT_EQ(total, svc.unresponsive_pool().size());
  EXPECT_GT(steps_with_exclusions, 0u);
}

TEST_F(ServiceTest, ThirtyDayFilterMatchesStreakReplay) {
  // Replays the 30-day filter from what each scan targeted and answered:
  // an address is excluded on its `unresponsive_scans`-th miss in a row,
  // and the pool lists exclusions in scan-target order.
  for (const int threshold : {1, 3, 5}) {
    HitlistService::Config cfg;
    cfg.traceroute.target_budget = 4000;
    cfg.unresponsive_scans = threshold;
    HitlistService svc(cfg);
    std::map<Ipv6, int> misses;
    std::vector<Ipv6> pool;
    std::set<Ipv6> pool_set;
    for (int i = 0; i < 12; ++i) {
      svc.step(*world_, ScanDate{i});
      const History::Entry& entry = svc.history().at(i);
      // The step scanned the inputs it held after collecting its sources,
      // less blocked, excluded and aliased ones. Traceroute hops are added
      // after the scan, so the targets are the first scan_targets inputs
      // that pass those filters.
      std::vector<Ipv6> targets;
      for (const auto& a : svc.input().addresses()) {
        if (targets.size() == entry.scan_targets) break;
        if (svc.blocklist().covers(a) || pool_set.contains(a) ||
            svc.aliased().covers(a))
          continue;
        targets.push_back(a);
      }
      ASSERT_EQ(targets.size(), entry.scan_targets);
      std::set<Ipv6> answered;
      for (const auto& [a, mask] : entry.responsive) answered.insert(a);
      for (const auto& a : targets) {
        if (answered.contains(a)) {
          misses.erase(a);
        } else if (++misses[a] >= threshold) {
          misses.erase(a);
          pool.push_back(a);
          pool_set.insert(a);
        }
      }
    }
    EXPECT_EQ(svc.unresponsive_pool(), pool) << "threshold " << threshold;
    for (const auto& a : svc.input().addresses())
      EXPECT_EQ(svc.excluded(a), pool_set.contains(a))
          << a.str() << " threshold " << threshold;
  }
}

TEST_F(ServiceTest, GfwSpikeAppearsInPublishedCountsOnly) {
  const auto& h = service_->history();
  const auto& gfw = service_->gfw();
  // Scan 9 is inside the first injection window (2019-03..06).
  const auto pub = h.counts(9);
  const auto clean = h.counts(9, &gfw);
  EXPECT_GT(pub.per_proto[proto_index(Proto::Udp53)],
            clean.per_proto[proto_index(Proto::Udp53)] * 5);
  // Outside the window (scan 3) both views agree.
  const auto pub3 = h.counts(3);
  const auto clean3 = h.counts(3, &gfw);
  EXPECT_EQ(pub3.per_proto[proto_index(Proto::Udp53)],
            clean3.per_proto[proto_index(Proto::Udp53)]);
}

TEST_F(ServiceTest, TaintedAddressesAreCensoredNetworkResidents) {
  std::size_t checked = 0;
  for (const auto& [a, rec] : service_->gfw().taint_records()) {
    EXPECT_TRUE(world_->behind_gfw(a)) << a.str();
    if (++checked == 200) break;
  }
  EXPECT_GT(checked, 10u);
}

TEST_F(ServiceTest, BlocklistIsRespected) {
  HitlistService::Config cfg;
  cfg.blocklist_prefixes = {pfx("2600:3c00::/32")};  // opt-out: Linode
  HitlistService svc(cfg);
  svc.step(*world_, ScanDate{0});
  for (const auto& [a, mask] : svc.history().at(0).responsive)
    EXPECT_FALSE(pfx("2600:3c00::/32").contains(a)) << a.str();
}

TEST_F(ServiceTest, SourcesDeliverRdnsOneShot) {
  SourceCollector collector(SourceCollector::Config{});
  const auto before = collector.collect(*world_, ScanDate{6});
  const auto at = collector.collect(*world_, ScanDate{7});
  std::size_t rdns_before = 0;
  std::size_t rdns_at = 0;
  for (const auto& k : before)
    if (k.tags & kSrcRdns) ++rdns_before;
  for (const auto& k : at)
    if (k.tags & kSrcRdns) ++rdns_at;
  EXPECT_EQ(rdns_before, 0u);
  EXPECT_GT(rdns_at, 10u);
}

TEST_F(ServiceTest, NewSourceEvaluatorFiltersKnownAndAliased) {
  NewSourceEvaluator::Config cfg;
  cfg.seed_scan = 11;
  cfg.first_eval_scan = 9;
  NewSourceEvaluator eval(world_, service_, cfg);

  // Candidates: some already-known input + some aliased + fresh ones.
  std::vector<Ipv6> cands;
  const auto& input = service_->input().addresses();
  for (std::size_t i = 0; i < 50 && i < input.size(); ++i)
    cands.push_back(input[i]);
  const auto aliased = service_->aliased_list();
  for (std::size_t i = 0; i < 20 && i < aliased.size(); ++i)
    cands.push_back(aliased[i].random_address(0x11));
  for (std::uint64_t i = 0; i < 30; ++i)
    cands.push_back(pfx("3fff::/20").random_address(i));  // unrouted

  const auto rep = eval.evaluate("mix", cands);
  EXPECT_EQ(rep.raw, cands.size());
  EXPECT_LE(rep.new_candidates, rep.raw - 50);
  EXPECT_LE(rep.non_aliased, rep.new_candidates);
  EXPECT_TRUE(rep.responsive.empty());  // unrouted space never answers
}

TEST_F(ServiceTest, TgaSeedsExcludeInjectedOnlyAddresses) {
  NewSourceEvaluator::Config cfg;
  cfg.seed_scan = 9;  // inside the first GFW window
  NewSourceEvaluator eval(world_, service_, cfg);
  const auto seeds = eval.tga_seeds();
  const auto& gfw = service_->gfw();
  for (const auto& s : seeds) {
    if (!gfw.tainted(s)) continue;
    // tainted seeds must have been responsive on another protocol
    bool other = false;
    for (const auto& [a, mask] : service_->history().at(9).responsive)
      if (a == s && (mask & ~proto_bit(Proto::Udp53)) != 0) other = true;
    EXPECT_TRUE(other) << s.str();
  }
}

// --- world reuse ------------------------------------------------------------

/// What a timeline leaves behind that must not depend on what the world
/// was asked before: stable metrics, the history and every epoch's content.
struct TimelineOutputs {
  std::string stable_metrics;
  std::vector<History::Entry> history;
  std::vector<std::uint64_t> epoch_digests;
};

TimelineOutputs run_timeline(const World& world, int scans) {
  HitlistService::Config cfg;
  cfg.threads = 2;
  HitlistService service(cfg);
  TimelineOutputs out;
  for (int i = 0; i < scans; ++i) {
    service.step(world, ScanDate{i});
    out.epoch_digests.push_back(
        serve::freeze_epoch(service, world, i)->content_digest());
  }
  out.stable_metrics =
      service.metrics().snapshot().to_json(/*include_volatile=*/false);
  out.history = service.history().entries();
  return out;
}

void expect_same_timeline(const TimelineOutputs& fresh,
                          const TimelineOutputs& reused) {
  EXPECT_TRUE(reused.stable_metrics == fresh.stable_metrics)
      << "stable metrics differ";
  EXPECT_EQ(reused.epoch_digests, fresh.epoch_digests);
  ASSERT_EQ(reused.history.size(), fresh.history.size());
  for (std::size_t i = 0; i < fresh.history.size(); ++i) {
    const auto& f = fresh.history[i];
    const auto& r = reused.history[i];
    EXPECT_EQ(r.scan_index, f.scan_index);
    EXPECT_EQ(r.responsive, f.responsive) << "scan " << i;
    EXPECT_EQ(r.input_total, f.input_total) << "scan " << i;
    EXPECT_EQ(r.scan_targets, f.scan_targets) << "scan " << i;
    EXPECT_EQ(r.aliased_prefixes, f.aliased_prefixes) << "scan " << i;
    EXPECT_EQ(r.duration_days, f.duration_days) << "scan " << i;
  }
}

TEST(WorldReuse, TestWorldSecondTimelineMatchesFirst) {
  // The first timeline runs on a fresh world; the second on the same
  // World, which has by then answered every probe of the first.
  const auto world = build_test_world(42);
  const TimelineOutputs fresh = run_timeline(*world, 12);
  const TimelineOutputs reused = run_timeline(*world, 12);
  expect_same_timeline(fresh, reused);
}

TEST(WorldReuse, PaperScaleSliceSecondTimelineMatchesFirst) {
  // Paper scale is where lazy per-date deployment state shows: sparse
  // aliased regions grow by tens of /64s per scan. With seed 41, a region
  // that remembered later dates' /64s changes APD probe counts from the
  // second scan of the reused timeline on.
  const auto world = build_world(WorldConfig{.seed = 41});
  const TimelineOutputs fresh = run_timeline(*world, 5);
  const TimelineOutputs reused = run_timeline(*world, 5);
  expect_same_timeline(fresh, reused);
}

// --- sorted eligible column -------------------------------------------------

TEST(EligibleColumn, MatchesSortedEligibleRowsAcrossMergesAndDrops) {
  // Random rounds of adds (some blocklisted, some repeats), then random
  // exclusions: after every catch_up the column must be exactly the
  // eligible rows, strictly ascending by address, rows aligned, and
  // insertion_rows() the same rows ascending.
  const PrefixSet blocklist({pfx("2001:db8:ff::/48")});
  InputDb db;
  EligibleColumn column;
  Rng rng(77);
  // What insertion_rows() holds after catch_up(db), read without it.
  const auto rows_after_catch_up = [&] {
    std::vector<std::uint32_t> out(column.insertion_rows().begin(),
                                   column.insertion_rows().end());
    column.for_each_new_row(db, [&](std::uint32_t r) { out.push_back(r); });
    return out;
  };
  const auto check = [&](int round) {
    std::vector<std::pair<Ipv6, std::uint32_t>> expect;
    std::vector<std::uint32_t> expect_rows;
    for (std::uint32_t r = 0; r < db.size(); ++r)
      if (!db.meta(r).blocked && !db.meta(r).excluded) {
        expect.emplace_back(db.addresses()[r], r);
        expect_rows.push_back(r);
      }
    EXPECT_TRUE(std::ranges::equal(column.insertion_rows(), expect_rows))
        << "round " << round;
    EXPECT_EQ(rows_after_catch_up(), expect_rows) << "round " << round;
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(column.size(), expect.size()) << "round " << round;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(column.addrs()[i], expect[i].first) << "round " << round;
      EXPECT_EQ(column.rows()[i], expect[i].second) << "round " << round;
    }
  };
  for (int round = 0; round < 12; ++round) {
    const int adds = round == 3 ? 0 : static_cast<int>(rng.next() % 400);
    for (int k = 0; k < adds; ++k) {
      const std::uint64_t v = rng.next();
      const Ipv6 a = (v & 7) == 0
                         ? pfx("2001:db8:ff::/48").random_address(v)
                         : pfx("2001:db8::/40").random_address(v % 5000);
      db.add(a, kSrcDnsAaaa, round, &blocklist);
    }
    // Before catching up, the new rows already read as eligible.
    std::vector<std::uint32_t> upcoming;
    for (std::uint32_t r = 0; r < db.size(); ++r)
      if (!db.meta(r).blocked && !db.meta(r).excluded) upcoming.push_back(r);
    EXPECT_EQ(rows_after_catch_up(), upcoming) << "round " << round;
    column.catch_up(db);
    check(round);
    std::vector<Ipv6> gone;
    for (std::size_t i = 0; i < column.size(); ++i) {
      if (rng.next() % 5 != 0) continue;
      db.meta(column.rows()[i]).excluded = true;
      gone.push_back(column.addrs()[i]);
    }
    std::reverse(gone.begin(), gone.end());  // drop takes any order
    column.drop(db, gone);
    column.catch_up(db);  // nothing new: a no-op merge
    check(round);
  }
}

/// What step(d) hands to APD, rebuilt from public state the way the service
/// built it before it kept a sorted eligible column: the eligible targets,
/// then what the sources deliver for `d` that the input does not hold yet,
/// minus blocklisted addresses (new addresses cannot be excluded yet).
std::vector<Ipv6> apd_input(const HitlistService& svc, const World& world,
                            ScanDate d) {
  std::vector<Ipv6> targets = svc.eligible_targets();
  const SourceCollector sources(svc.config().sources);
  std::unordered_set<Ipv6, Ipv6Hasher> seen;
  for (const auto& k : sources.collect(world, d))
    if (!svc.input().contains(k.addr) && seen.insert(k.addr).second &&
        !svc.blocklist().covers(k.addr))
      targets.push_back(k.addr);
  return targets;
}

/// Step `svc` through scans [from, to). Before each step, enumerate the
/// candidates of the rebuilt APD input; after it, the step must have
/// tested exactly those and scanned exactly the rebuilt targets the new
/// aliased set does not cover. Returns the step outcomes.
std::vector<HitlistService::ScanOutcome> step_against_rebuild(
    HitlistService& svc, const World& world, int from, int to) {
  std::vector<HitlistService::ScanOutcome> outcomes;
  const Counter& tested = svc.metrics().counter("apd.candidates_tested");
  for (int i = from; i < to; ++i) {
    const ScanDate d{i};
    const std::vector<Ipv6> targets = apd_input(svc, world, d);
    const std::size_t cands =
        AliasDetector::candidates(world.rib(), targets, svc.config().apd)
            .size();
    const std::uint64_t before = tested.value();
    outcomes.push_back(svc.step(world, d));
    EXPECT_EQ(tested.value() - before, cands) << "scan " << i;
    const auto uncovered = static_cast<std::size_t>(
        std::count_if(targets.begin(), targets.end(), [&](const Ipv6& a) {
          return !svc.aliased().covers(a);
        }));
    EXPECT_EQ(outcomes.back().scan_targets, uncovered) << "scan " << i;
  }
  return outcomes;
}

void expect_same_outcomes(const std::vector<HitlistService::ScanOutcome>& a,
                          const std::vector<HitlistService::ScanOutcome>& b,
                          unsigned threads) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].input_total, b[i].input_total) << threads << " " << i;
    EXPECT_EQ(a[i].scan_targets, b[i].scan_targets) << threads << " " << i;
    EXPECT_EQ(a[i].aliased_count, b[i].aliased_count) << threads << " " << i;
    EXPECT_EQ(a[i].excluded_total, b[i].excluded_total) << threads << " " << i;
    EXPECT_EQ(a[i].responsive_per_proto, b[i].responsive_per_proto)
        << threads << " " << i;
  }
}

constexpr int kSortedEligibleScans = 46;

TEST(ServiceSortedEligible, MatchesRebuiltTargetsWithBlocklist) {
  const auto world = build_test_world(61);
  std::vector<HitlistService::ScanOutcome> first;
  for (unsigned threads : {1u, 2u, 7u}) {
    HitlistService::Config cfg;
    cfg.threads = threads;
    cfg.blocklist_prefixes = {pfx("2600:3c00::/32"), pfx("2a00:1450::/32")};
    HitlistService svc(cfg);
    const auto outcomes =
        step_against_rebuild(svc, *world, 0, kSortedEligibleScans);
    EXPECT_GT(svc.input().blocked_count(), 0u);
    if (first.empty())
      first = outcomes;
    else
      expect_same_outcomes(first, outcomes, threads);
  }
}

TEST(ServiceSortedEligible, MatchesRebuiltTargetsWhenRowsLeaveEveryStep) {
  const auto world = build_test_world(62);
  std::vector<HitlistService::ScanOutcome> first;
  for (unsigned threads : {1u, 2u, 7u}) {
    HitlistService::Config cfg;
    cfg.threads = threads;
    cfg.unresponsive_scans = 2;
    HitlistService svc(cfg);
    const auto outcomes =
        step_against_rebuild(svc, *world, 0, kSortedEligibleScans);
    for (std::size_t i = 1; i < outcomes.size(); ++i)
      EXPECT_GT(outcomes[i].newly_excluded, 0u) << "scan " << i;
    if (first.empty())
      first = outcomes;
    else
      expect_same_outcomes(first, outcomes, threads);
  }
}

TEST(ServiceSortedEligible, MatchesRebuiltTargetsAfterArchiveLoad) {
  const auto world = build_test_world(63);
  constexpr int kSaved = kSortedEligibleScans - 6;
  const std::string path = ::testing::TempDir() + "/sixdust_sorted_elig.bin";
  std::vector<HitlistService::ScanOutcome> first;
  for (unsigned threads : {1u, 2u, 7u}) {
    HitlistService::Config cfg;
    cfg.threads = threads;
    cfg.unresponsive_scans = 2;
    {
      HitlistService svc(cfg);
      step_against_rebuild(svc, *world, 0, kSaved);
      ASSERT_TRUE(ServiceArchive::save(svc, 0x5E1, path));
    }
    // The restored service starts with an empty column, so its first step
    // merges every eligible row.
    auto loaded = ServiceArchive::load(cfg, 0x5E1, path);
    ASSERT_NE(loaded, nullptr);
    const auto outcomes = step_against_rebuild(*loaded, *world, kSaved,
                                               kSortedEligibleScans);
    if (first.empty())
      first = outcomes;
    else
      expect_same_outcomes(first, outcomes, threads);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sixdust
