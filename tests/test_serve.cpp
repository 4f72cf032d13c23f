// Tests for the serving layer (src/serve/, DESIGN.md §13): epoch-snapshot
// freezing and lookups, the RCU-style SnapshotManager swap, the wire
// protocol round trip, the batch-vs-daemon differential (byte-identical
// stable artifacts and per-epoch records at threads 1/2/7, with and
// without live query traffic and the full telemetry plane), the
// serve-mode golden regression, the snapshot-isolation stress (TSan via
// the tsan-concurrency preset), in-process end-to-end runs across
// several epoch swaps, and the HTTP scrape endpoint + watchdog of the
// live telemetry plane (DESIGN.md §15).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hitlist/report_gen.hpp"
#include "hitlist/service.hpp"
#include "netbase/rng.hpp"
#include "obs/json_mini.hpp"
#include "obs/latency_histogram.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/http.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_manager.hpp"
#include "serve/telemetry.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

using serve::EpochRecord;
using serve::EpochSnapshot;
using serve::Op;
using serve::Response;
using serve::SnapshotManager;
using serve::Status;

// --- snapshot freezing ------------------------------------------------------

TEST(ServeSnapshot, FreezeMirrorsServiceState) {
  const auto world = build_test_world(42);
  HitlistService service(HitlistService::Config{});
  service.run(*world, 3);

  const auto snap = serve::freeze_epoch(service, *world, 2);
  const History::Entry& entry = service.history().at(2);
  EXPECT_EQ(snap->epoch(), 2);
  EXPECT_EQ(snap->info().date, ScanDate{2}.str());
  EXPECT_EQ(snap->info().input_total, entry.input_total);
  EXPECT_EQ(snap->info().scan_targets, entry.scan_targets);
  EXPECT_EQ(snap->info().aliased_prefixes, entry.aliased_prefixes);
  EXPECT_EQ(snap->info().responsive, entry.responsive.size());
  EXPECT_EQ(snap->info().excluded_total, service.unresponsive_pool().size());

  // Every responsive row resolves to its mask; an absent address does not.
  ASSERT_FALSE(entry.responsive.empty());
  for (const auto& [addr, mask] : entry.responsive) {
    const auto got = snap->lookup(addr);
    ASSERT_TRUE(got.has_value()) << addr.str();
    EXPECT_EQ(*got, mask) << addr.str();
  }
  EXPECT_FALSE(snap->lookup(Ipv6::from_words(~0ULL, ~0ULL)).has_value());

  // Aliased coverage matches the service's aliased list; origin lookups
  // answer straight from the world's RIB.
  for (const auto& p : service.aliased_list()) {
    const Ipv6 inside = p.random_address(7);
    EXPECT_TRUE(snap->alias_covers(inside)) << p.str();
    const auto covering = snap->alias_prefix(inside);
    ASSERT_TRUE(covering.has_value());
    EXPECT_TRUE(covering->contains(inside));
  }
  const Ipv6 probe = entry.responsive.front().first;
  const auto route = snap->origin(probe);
  const auto want = world->rib().route(probe);
  ASSERT_EQ(route.has_value(), want.has_value());
  if (route) {
    EXPECT_EQ(route->prefix, want->prefix);
    EXPECT_EQ(route->origin, want->origin);
  }

  EXPECT_EQ(snap->digest(), snap->content_digest());
}

TEST(ServeSnapshot, DigestDistinguishesEpochs) {
  const auto world = build_test_world(42);
  HitlistService service(HitlistService::Config{});
  service.run(*world, 3);
  const auto a = serve::freeze_epoch(service, *world, 0);
  const auto b = serve::freeze_epoch(service, *world, 2);
  EXPECT_NE(a->digest(), b->digest());
}

TEST(ServeSnapshotManager, PublishSwapsCurrent) {
  SnapshotManager snaps;
  EXPECT_EQ(snaps.current(), nullptr);
  EXPECT_EQ(snaps.published(), 0u);

  EpochSnapshot::Info info;
  info.epoch = 0;
  info.date = "synthetic";
  auto snap = std::make_shared<const EpochSnapshot>(
      info, std::vector<std::pair<Ipv6, ProtoMask>>{}, std::vector<Prefix>{},
      nullptr);
  snaps.publish(snap);
  EXPECT_EQ(snaps.current(), snap);
  EXPECT_EQ(snaps.published(), 1u);

  info.epoch = 1;
  auto next = std::make_shared<const EpochSnapshot>(
      info, std::vector<std::pair<Ipv6, ProtoMask>>{}, std::vector<Prefix>{},
      nullptr);
  snaps.publish(next);
  EXPECT_EQ(snaps.current(), next);
  EXPECT_EQ(snaps.published(), 2u);
  // The old epoch stays alive for as long as a reader pins it.
  EXPECT_EQ(snap->epoch(), 0);
}

// --- wire protocol ----------------------------------------------------------

/// Strip the length prefix off a complete response frame and decode it.
Response decode_frame(const std::vector<std::uint8_t>& frame) {
  EXPECT_GE(frame.size(), 4u);
  const std::uint32_t len = serve::get_u32(frame.data());
  EXPECT_EQ(len + 4, frame.size());
  const auto body =
      std::span<const std::uint8_t>(frame.data() + 4, frame.size() - 4);
  const auto parsed = serve::parse_response(body);
  EXPECT_TRUE(parsed.has_value());
  return parsed.value_or(Response{});
}

TEST(ServeProtocol, EngineAnswersEveryOpAgainstLiveSnapshot) {
  const auto world = build_test_world(42);
  HitlistService service(HitlistService::Config{});
  service.run(*world, 2);

  SnapshotManager snaps(&service.metrics());
  serve::QueryEngine engine(&snaps, &service.metrics());

  // No snapshot published yet: well-formed queries get kNoSnapshot.
  const Ipv6 hit = service.history().at(1).responsive.front().first;
  {
    const Response r = decode_frame(engine.handle(serve::request_lookup(hit)));
    EXPECT_EQ(r.op, Op::kLookup);
    EXPECT_EQ(r.status, Status::kNoSnapshot);
    EXPECT_EQ(r.epoch, serve::kNoEpoch);
  }

  const auto snap = serve::freeze_epoch(service, *world, 1);
  snaps.publish(snap);

  {  // lookup hit: payload is the one-byte protocol mask
    const Response r = decode_frame(engine.handle(serve::request_lookup(hit)));
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.epoch, 1u);
    ASSERT_EQ(r.payload.size(), 1u);
    EXPECT_EQ(r.payload[0], *snap->lookup(hit));
  }
  {  // lookup miss
    const Response r = decode_frame(
        engine.handle(serve::request_lookup(Ipv6::from_words(~0ULL, ~0ULL))));
    EXPECT_EQ(r.status, Status::kNotFound);
  }
  {  // origin: base | plen | asn mirrors the RIB route
    const Response r = decode_frame(engine.handle(serve::request_origin(hit)));
    const auto route = snap->origin(hit);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.payload.size(), 21u);
    EXPECT_EQ(serve::get_addr(r.payload.data()), route->prefix.base());
    EXPECT_EQ(r.payload[16], route->prefix.len());
    EXPECT_EQ(serve::get_u32(r.payload.data() + 17),
              static_cast<std::uint32_t>(route->origin));
  }
  {  // alias probe on a covered address
    if (!snap->aliased_prefixes().empty()) {
      const Ipv6 inside = snap->aliased_prefixes().front().random_address(3);
      const Response r =
          decode_frame(engine.handle(serve::request_alias(inside)));
      EXPECT_EQ(r.status, Status::kOk);
      ASSERT_GE(r.payload.size(), 18u);
      EXPECT_EQ(r.payload[0], 1);
      EXPECT_EQ(serve::get_addr(r.payload.data() + 1),
                snap->alias_prefix(inside)->base());
    }
  }
  {  // epoch info: counters + digest round-trip exactly
    const Response r = decode_frame(engine.handle(serve::request_epoch_info()));
    EXPECT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.payload.size(), 4u + 6 * 8u);
    EXPECT_EQ(serve::get_u32(r.payload.data()), 1u);
    EXPECT_EQ(serve::get_u64(r.payload.data() + 4), snap->info().input_total);
    EXPECT_EQ(serve::get_u64(r.payload.data() + 12),
              snap->info().scan_targets);
    EXPECT_EQ(serve::get_u64(r.payload.data() + 20),
              snap->info().aliased_prefixes);
    EXPECT_EQ(serve::get_u64(r.payload.data() + 28), snap->info().responsive);
    EXPECT_EQ(serve::get_u64(r.payload.data() + 36),
              snap->info().excluded_total);
    EXPECT_EQ(serve::get_u64(r.payload.data() + 44), snap->digest());
  }
  {  // metrics: a JSON export including the volatile serve.* counters
    const Response r = decode_frame(engine.handle(serve::request_metrics()));
    EXPECT_EQ(r.status, Status::kOk);
    const std::string json(r.payload.begin(), r.payload.end());
    EXPECT_NE(json.find("serve.requests{op=lookup}"), std::string::npos);
  }

  // The request traffic above stays off the stable export surface.
  const std::string stable =
      service.metrics().snapshot().to_json(/*include_volatile=*/false);
  EXPECT_EQ(stable.find("serve."), std::string::npos);
}

TEST(ServeProtocol, FrameDecoderReassemblesArbitrarySplits) {
  // Three frames concatenated, fed one byte at a time: the decoder must
  // emit exactly the three bodies, in order, regardless of chunking.
  std::vector<std::vector<std::uint8_t>> bodies = {
      {1, 2, 3}, {}, {9, 8, 7, 6, 5}};
  std::vector<std::uint8_t> stream;
  for (const auto& b : bodies) {
    const auto f = serve::frame(b);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  serve::FrameDecoder dec;
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(dec.feed(std::span<const std::uint8_t>(&byte, 1),
                         [&](std::span<const std::uint8_t> body) {
                           got.emplace_back(body.begin(), body.end());
                         }));
  }
  EXPECT_EQ(got, bodies);
  EXPECT_EQ(dec.pending(), 0u);

  // A declared length above the limit poisons the decoder.
  std::vector<std::uint8_t> huge;
  serve::put_u32(huge, serve::kMaxRequestBody + 1);
  EXPECT_FALSE(dec.feed(huge, [](std::span<const std::uint8_t>) {
    FAIL() << "oversized frame must not reach the sink";
  }));
  EXPECT_TRUE(dec.dead());
}

// --- differential: daemon vs batch ------------------------------------------

struct RunArtifacts {
  std::string stable_metrics;
  std::string report_md;
  std::string timeline_csv;
  std::vector<EpochRecord> records;
};

enum class Mode {
  kBatchPlain,   // service.run() with no hook at all
  kBatchRecord,  // epoch hook in record-only mode (no SnapshotManager)
  kDaemon,       // full daemon path: freeze + publish every epoch
  kDaemonLoad,   // kDaemon with a live server and query traffic on top
  kDaemonFull,   // kDaemonLoad plus the whole telemetry plane: LiveTelemetry
                 // sampler + watchdog, HTTP scrape endpoint, scrape traffic
};

RunArtifacts run_epochs(const World& world, unsigned threads, int scans,
                        Mode mode) {
  HitlistService::Config cfg;
  cfg.threads = threads;
  HitlistService service(cfg);

  SnapshotManager snaps(&service.metrics());
  SnapshotManager* publish_to =
      mode == Mode::kBatchPlain || mode == Mode::kBatchRecord ? nullptr
                                                              : &snaps;

  std::unique_ptr<serve::LiveTelemetry> telemetry;
  if (mode == Mode::kDaemonFull) {
    serve::LiveTelemetry::Config tc;
    tc.metrics = &service.metrics();
    tc.snaps = &snaps;
    tc.sample_interval_ms = 20;  // sample aggressively while epochs run
    tc.slow_query_us = 1;        // every query trips the slow-query ring
    telemetry = std::make_unique<serve::LiveTelemetry>(tc);
  }
  serve::EpochPublisher publisher(&service, &world, publish_to,
                                  telemetry.get());

  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::HttpServer> http;
  std::thread traffic;
  std::thread scraper;
  std::atomic<bool> traffic_stop{false};
  if (mode == Mode::kDaemonLoad || mode == Mode::kDaemonFull) {
    serve::Server::Config sc;
    sc.listen.kind = serve::ListenSpec::Kind::kUnix;
    sc.listen.path = "/tmp/sixdust-serve-diff-" + std::to_string(::getpid()) +
                     "-" + std::to_string(threads) + ".sock";
    sc.metrics = &service.metrics();
    sc.pool = service.pool();
    sc.telemetry = telemetry.get();
    server = std::make_unique<serve::Server>(sc, &snaps);
    std::string error;
    if (!server->start(&error)) ADD_FAILURE() << "server start: " << error;
    if (telemetry != nullptr) {
      telemetry->set_server(server.get());
      if (!telemetry->start(&error))
        ADD_FAILURE() << "telemetry start: " << error;
      serve::HttpServer::Config hc;
      hc.listen.kind = serve::ListenSpec::Kind::kUnix;
      hc.listen.path = "/tmp/sixdust-serve-diff-http-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(threads) + ".sock";
      hc.metrics = &service.metrics();
      hc.pool = service.pool();
      hc.handler =
          serve::scrape_handler(&service.metrics(), telemetry.get());
      http = std::make_unique<serve::HttpServer>(std::move(hc));
      if (!http->start(&error)) ADD_FAILURE() << "http start: " << error;
      scraper = std::thread([&http, &traffic_stop] {
        const auto spec = serve::parse_listen_spec(http->endpoint());
        if (!spec) return;
        const char* paths[] = {"/stats", "/metrics", "/healthz",
                               "/timeseries"};
        std::size_t i = 0;
        while (!traffic_stop.load(std::memory_order_relaxed)) {
          const auto res = serve::http_get(*spec, paths[i++ % 4], 2000);
          if (res.has_value()) {
            EXPECT_NE(res->status, 0);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    traffic = std::thread([&server, &traffic_stop] {
      serve::Client client;
      if (!client.connect(
              serve::parse_listen_spec(server->endpoint()).value(), 2000))
        return;
      Rng rng(99);
      std::uint32_t last_epoch = 0;
      bool have_epoch = false;
      while (!traffic_stop.load(std::memory_order_relaxed)) {
        const Ipv6 a = Ipv6::from_words(rng.next(), rng.next());
        std::optional<Response> r;
        switch (rng.below(4)) {
          case 0: r = client.request(serve::request_lookup(a)); break;
          case 1: r = client.request(serve::request_origin(a)); break;
          case 2: r = client.request(serve::request_alias(a)); break;
          default: r = client.request(serve::request_epoch_info()); break;
        }
        if (!r) return;  // daemon shut down mid-request
        if (r->epoch != serve::kNoEpoch) {
          if (have_epoch) {
            EXPECT_GE(r->epoch, last_epoch);
          }
          last_epoch = r->epoch;
          have_epoch = true;
        }
      }
    });
  }

  if (mode == Mode::kBatchPlain) {
    service.run(world, scans);
  } else {
    service.run(world, scans, [&](const HitlistService::ScanOutcome& o) {
      publisher.on_epoch(o);
    });
  }

  if (mode == Mode::kDaemonLoad || mode == Mode::kDaemonFull) {
    traffic_stop.store(true, std::memory_order_relaxed);
    traffic.join();
    if (scraper.joinable()) scraper.join();
    if (http != nullptr) http->stop();
    if (telemetry != nullptr) telemetry->stop();
    server->stop();
  }

  RunArtifacts out;
  out.stable_metrics =
      service.metrics().snapshot().to_json(/*include_volatile=*/false);
  ServiceReport report(&service, &world.rib(), &world.registry());
  out.report_md = report.markdown();
  out.timeline_csv = report.timeline_csv();
  out.records = publisher.records();
  return out;
}

TEST(ServeDifferential, DaemonMatchesBatchAcrossThreadCounts) {
  const auto world = build_test_world(42);
  constexpr int kScans = 12;
  const RunArtifacts batch = run_epochs(*world, 1, kScans, Mode::kBatchPlain);
  const RunArtifacts rec = run_epochs(*world, 1, kScans, Mode::kBatchRecord);
  const RunArtifacts d1 = run_epochs(*world, 1, kScans, Mode::kDaemon);
  const RunArtifacts d2 = run_epochs(*world, 2, kScans, Mode::kDaemon);
  const RunArtifacts d7 = run_epochs(*world, 7, kScans, Mode::kDaemon);

  // The epoch hook (record-only or publishing) must not perturb a single
  // stable byte relative to the plain batch run.
  EXPECT_EQ(batch.stable_metrics, rec.stable_metrics);
  EXPECT_EQ(batch.report_md, rec.report_md);
  EXPECT_EQ(batch.timeline_csv, rec.timeline_csv);

  for (const RunArtifacts* daemon : {&d1, &d2, &d7}) {
    EXPECT_EQ(batch.stable_metrics, daemon->stable_metrics);
    EXPECT_EQ(batch.report_md, daemon->report_md);
    EXPECT_EQ(batch.timeline_csv, daemon->timeline_csv);
    // Per-epoch snapshot identity, digests included.
    EXPECT_EQ(rec.records, daemon->records);
  }
  ASSERT_EQ(rec.records.size(), static_cast<std::size_t>(kScans));
}

TEST(ServeDifferential, LiveQueryTrafficDoesNotPerturbTheEpochs) {
  const auto world = build_test_world(42);
  constexpr int kScans = 6;
  const RunArtifacts batch = run_epochs(*world, 1, kScans, Mode::kBatchPlain);
  const RunArtifacts loaded = run_epochs(*world, 2, kScans, Mode::kDaemonLoad);
  EXPECT_EQ(batch.stable_metrics, loaded.stable_metrics);
  EXPECT_EQ(batch.report_md, loaded.report_md);
  EXPECT_EQ(batch.timeline_csv, loaded.timeline_csv);
  ASSERT_EQ(loaded.records.size(), static_cast<std::size_t>(kScans));
}

TEST(ServeDifferential, TelemetryPlaneDoesNotPerturbStableOutputs) {
  // The strongest form of the volatile-only contract (DESIGN.md §15):
  // with the ENTIRE telemetry plane on — per-query recording, the
  // watchdog sampler, the HTTP scrape endpoint under scrape traffic, the
  // slow-query ring tripping on every request — every stable artifact
  // and every per-epoch record is still byte-identical to the plain
  // batch run, at every thread count.
  const auto world = build_test_world(42);
  constexpr int kScans = 6;
  const RunArtifacts batch = run_epochs(*world, 1, kScans, Mode::kBatchPlain);
  const RunArtifacts ref = run_epochs(*world, 1, kScans, Mode::kDaemon);
  for (const unsigned threads : {1u, 2u, 7u}) {
    const RunArtifacts full =
        run_epochs(*world, threads, kScans, Mode::kDaemonFull);
    EXPECT_EQ(batch.stable_metrics, full.stable_metrics)
        << "threads=" << threads;
    EXPECT_EQ(batch.report_md, full.report_md) << "threads=" << threads;
    EXPECT_EQ(batch.timeline_csv, full.timeline_csv) << "threads=" << threads;
    EXPECT_EQ(ref.records, full.records) << "threads=" << threads;
    ASSERT_EQ(full.records.size(), static_cast<std::size_t>(kScans));
  }
}

// --- serve-mode golden ------------------------------------------------------

#ifndef SIXDUST_SOURCE_DIR
#error "SIXDUST_SOURCE_DIR must be defined for the serve golden test"
#endif

TEST(ServeGolden, TwelveEpochDaemonMatchesCheckedInRecords) {
  const std::string golden_path =
      std::string(SIXDUST_SOURCE_DIR) + "/tests/golden/serve_epochs.json";
  const auto world = build_test_world(42);
  const RunArtifacts run = run_epochs(*world, 1, 12, Mode::kDaemon);
  const std::string json = serve::epoch_records_json(run.records);

  if (std::getenv("SIXDUST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << json;
    GTEST_SKIP() << "golden file regenerated: " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " — regenerate with tools/update-golden-metrics.sh";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "serve-mode epoch records drifted from the golden snapshot; if the "
         "change is intentional run tools/update-golden-metrics.sh";
}

// --- snapshot isolation under concurrency (TSan via tsan-concurrency) -------

std::shared_ptr<const EpochSnapshot> synthetic_snapshot(int epoch) {
  EpochSnapshot::Info info;
  info.epoch = epoch;
  info.date = "epoch-" + std::to_string(epoch);
  info.input_total = static_cast<std::uint64_t>(epoch) * 17;
  info.responsive = 32;
  std::vector<std::pair<Ipv6, ProtoMask>> responsive;
  for (std::uint64_t i = 0; i < 32; ++i)
    responsive.emplace_back(
        Ipv6::from_words(static_cast<std::uint64_t>(epoch), i),
        static_cast<ProtoMask>(1 + (i % 7)));
  std::vector<Prefix> aliased = {
      Prefix::make(Ipv6::from_words(static_cast<std::uint64_t>(epoch) << 16,
                                    0),
                   48)};
  return std::make_shared<const EpochSnapshot>(info, std::move(responsive),
                                               aliased, nullptr);
}

TEST(ServeSnapshotConcurrency, ReadersNeverObserveATornSnapshot) {
  // One writer swaps epochs as fast as it can; readers continuously pin
  // the current snapshot and recompute its content digest. Any torn or
  // half-published snapshot shows up as a digest mismatch (and as a TSan
  // race under the tsan-concurrency preset); epoch regression on a single
  // reader would mean publication went backwards.
  constexpr int kEpochs = 400;
  constexpr int kReaders = 3;
  SnapshotManager snaps;
  std::atomic<bool> done{false};
  std::array<std::atomic<std::uint64_t>, kReaders> observed{};

  std::vector<std::thread> readers;
  std::vector<int> max_epoch(kReaders, -1);
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int last = -1;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = snaps.current();
        if (snap == nullptr) continue;
        ASSERT_EQ(snap->content_digest(), snap->digest());
        ASSERT_GE(snap->epoch(), last);
        last = snap->epoch();
        observed[r].fetch_add(1, std::memory_order_relaxed);
        // Exercise the read paths readers actually use.
        const auto& rows = snap->responsive();
        ASSERT_EQ(rows.size(), 32u);
        ASSERT_TRUE(snap->lookup(rows[static_cast<std::size_t>(
                                     snap->epoch()) % rows.size()]
                                     .first)
                        .has_value());
      }
      max_epoch[r] = last;
    });
  }

  for (int e = 0; e < kEpochs; ++e) {
    snaps.publish(synthetic_snapshot(e));
    if (e % 16 == 0) std::this_thread::yield();
  }
  // Don't stop until every reader demonstrably pinned a snapshot — on a
  // single-core box the writer can otherwise finish before they start.
  for (int r = 0; r < kReaders; ++r)
    while (observed[r].load(std::memory_order_relaxed) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(snaps.published(), static_cast<std::uint64_t>(kEpochs));
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_GT(observed[r].load(), 0u)
        << "reader " << r << " never saw a snapshot";
    EXPECT_LE(max_epoch[r], kEpochs - 1);
  }
}

TEST(ServeSnapshotConcurrency, EngineQueriesStayCoherentAcrossSwaps) {
  // The same stress through the QueryEngine: concurrent handle() calls
  // against a manager being swapped must always produce well-formed
  // responses whose epoch-info payload is internally consistent (the
  // stamped epoch, the counters, and the digest all from ONE snapshot).
  constexpr int kEpochs = 200;
  constexpr int kReaders = 3;
  SnapshotManager snaps;
  MetricsRegistry reg;
  serve::QueryEngine engine(&snaps, &reg);
  std::atomic<bool> done{false};
  std::array<std::atomic<std::uint64_t>, kReaders> observed{};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint32_t last = 0;
      bool have_last = false;
      while (!done.load(std::memory_order_acquire)) {
        const Response resp =
            decode_frame(engine.handle(serve::request_epoch_info()));
        if (resp.status != Status::kOk) continue;  // pre-first-publish
        ASSERT_EQ(resp.payload.size(), 4u + 6 * 8u);
        const std::uint32_t epoch = serve::get_u32(resp.payload.data());
        ASSERT_EQ(epoch, resp.epoch);
        if (have_last) {
          ASSERT_GE(epoch, last);
        }
        last = epoch;
        have_last = true;
        observed[r].fetch_add(1, std::memory_order_relaxed);
        // The payload must be the one coherent snapshot of that epoch:
        // recompute its digest from a fresh synthetic twin.
        ASSERT_EQ(serve::get_u64(resp.payload.data() + 44),
                  synthetic_snapshot(static_cast<int>(epoch))->digest());
      }
    });
  }

  for (int e = 0; e < kEpochs; ++e) {
    snaps.publish(synthetic_snapshot(e));
    if (e % 16 == 0) std::this_thread::yield();
  }
  for (int r = 0; r < kReaders; ++r)
    while (observed[r].load(std::memory_order_relaxed) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(snaps.published(), static_cast<std::uint64_t>(kEpochs));
  for (int r = 0; r < kReaders; ++r) EXPECT_GT(observed[r].load(), 0u);
}

// --- in-process end to end ---------------------------------------------------

TEST(ServeEndToEnd, QueriesSustainAcrossEpochSwapsWithZeroDrops) {
  const auto world = build_test_world(42);
  HitlistService::Config cfg;
  cfg.threads = 2;
  HitlistService service(cfg);

  SnapshotManager snaps(&service.metrics());
  serve::Server::Config sc;
  sc.listen.kind = serve::ListenSpec::Kind::kUnix;
  sc.listen.path =
      "/tmp/sixdust-serve-e2e-" + std::to_string(::getpid()) + ".sock";
  sc.readers = 2;
  sc.metrics = &service.metrics();
  sc.pool = service.pool();
  serve::Server server(sc, &snaps);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const auto spec = serve::parse_listen_spec(server.endpoint());
  ASSERT_TRUE(spec.has_value());

  // Two hand-driven clients hammer epoch-info until told to stop — they
  // run for the *whole* epoch loop, so with >= 3 swaps and a paced epoch
  // barrier they must observe >= 3 distinct epochs, with zero transport
  // failures and a monotone epoch stamp per connection.
  std::atomic<bool> stop{false};
  struct ClientStats {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t incoherent = 0;
    std::vector<std::uint32_t> epochs;  // distinct, in observation order
  };
  std::vector<ClientStats> stats(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client;
      if (!client.connect(*spec, 2000)) {
        ++stats[c].dropped;
        return;
      }
      std::uint32_t last = serve::kNoEpoch;
      while (!stop.load(std::memory_order_relaxed)) {
        ++stats[c].sent;
        const auto r = client.request(serve::request_epoch_info());
        if (!r) {
          ++stats[c].dropped;
          return;
        }
        if (r->op == Op::kError) ++stats[c].incoherent;
        if (r->epoch == serve::kNoEpoch) continue;
        if (last != serve::kNoEpoch && r->epoch < last) ++stats[c].incoherent;
        if (last != r->epoch) stats[c].epochs.push_back(r->epoch);
        last = r->epoch;
      }
    });
  }

  // And the real loadgen on top, concurrently with the epoch loop.
  serve::LoadgenConfig lg;
  lg.target = *spec;
  lg.concurrency = 2;
  lg.requests = 600;
  lg.connect_timeout_ms = 2000;
  serve::LoadgenReport lg_report;
  std::string lg_error;
  bool lg_ok = false;
  std::thread loadgen([&] {
    // Wait out the first epoch: a loadgen that finishes before anything
    // is published would only ever see kNoSnapshot answers.
    while (snaps.published() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    lg_ok = serve::run_loadgen(lg, &lg_report, &lg_error);
  });

  constexpr int kEpochs = 5;
  serve::EpochPublisher publisher(&service, world.get(), &snaps);
  service.run(*world, kEpochs, [&](const HitlistService::ScanOutcome& o) {
    publisher.on_epoch(o);
    // Pace the barrier so clients provably overlap several epochs.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });

  loadgen.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  server.stop();

  EXPECT_EQ(snaps.published(), static_cast<std::uint64_t>(kEpochs));
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(stats[c].dropped, 0u) << "client " << c;
    EXPECT_EQ(stats[c].incoherent, 0u) << "client " << c;
    EXPECT_GT(stats[c].sent, 0u) << "client " << c;
    EXPECT_GE(stats[c].epochs.size(), 3u)
        << "client " << c << " must observe >= 3 distinct epoch swaps";
  }
  ASSERT_TRUE(lg_ok) << lg_error;
  EXPECT_EQ(lg_report.dropped, 0u);
  EXPECT_EQ(lg_report.incoherent, 0u);
  EXPECT_EQ(lg_report.sent,
            static_cast<std::uint64_t>(lg.concurrency) * lg.requests);
  EXPECT_GE(lg_report.epochs_seen, 1u);

  // Volatile serve counters recorded the traffic; the stable surface is
  // untouched by it (that is the differential's guarantee, spot-check it).
  const auto snap_metrics = service.metrics().snapshot();
  EXPECT_GT(snap_metrics.counter_value("serve.connections"), 0u);
  EXPECT_GT(snap_metrics.counter_value("serve.requests{op=epoch_info}"), 0u);
  EXPECT_EQ(snap_metrics.to_json(false).find("serve."), std::string::npos);
}

TEST(ServeEndToEnd, ListenSpecParsing) {
  const auto tcp = serve::parse_listen_spec("127.0.0.1:7653");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, serve::ListenSpec::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7653);
  const auto local = serve::parse_listen_spec("localhost:0");
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->host, "127.0.0.1");
  const auto unix_spec = serve::parse_listen_spec("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_spec.has_value());
  EXPECT_EQ(unix_spec->kind, serve::ListenSpec::Kind::kUnix);
  EXPECT_EQ(unix_spec->path, "/tmp/x.sock");

  EXPECT_FALSE(serve::parse_listen_spec("").has_value());
  EXPECT_FALSE(serve::parse_listen_spec("unix:").has_value());
  EXPECT_FALSE(serve::parse_listen_spec("no-port").has_value());
  EXPECT_FALSE(serve::parse_listen_spec(":123").has_value());
  EXPECT_FALSE(serve::parse_listen_spec("127.0.0.1:99999").has_value());
  EXPECT_FALSE(serve::parse_listen_spec("127.0.0.1:12a").has_value());
  EXPECT_FALSE(serve::parse_listen_spec("not.an.ip:80").has_value());
  EXPECT_FALSE(
      serve::parse_listen_spec("unix:" + std::string(200, 'x')).has_value());
}

// --- HTTP scrape endpoint (DESIGN.md §15) -----------------------------------

TEST(ServeHttp, RequestLineParsing) {
  const auto ok = serve::parse_http_request_line("GET /stats HTTP/1.0\r\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->method, "GET");
  EXPECT_EQ(ok->path, "/stats");
  const auto q = serve::parse_http_request_line("GET /stats?x=1&y=2 HTTP/1.1");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->path, "/stats");  // query string stripped
  EXPECT_FALSE(serve::parse_http_request_line("").has_value());
  EXPECT_FALSE(serve::parse_http_request_line("GET").has_value());
  EXPECT_FALSE(serve::parse_http_request_line("GET /stats").has_value());
  EXPECT_FALSE(
      serve::parse_http_request_line("GET stats HTTP/1.0").has_value());
  EXPECT_FALSE(
      serve::parse_http_request_line("GET /stats SPDY/1.0").has_value());
  EXPECT_FALSE(
      serve::parse_http_request_line("G\x01T /stats HTTP/1.0").has_value());
}

/// Raw-bytes HTTP exchange over a unix socket: send exactly `bytes`, read
/// to EOF. The hostile-input path the typed client can't exercise.
std::string raw_http_exchange(const std::string& sock_path,
                              const std::string& bytes) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", sock_path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: the server may 431-and-close mid-send; that is the
    // expected outcome, not a reason to die of SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return out;
}

struct HttpFixture {
  MetricsRegistry reg;
  std::unique_ptr<serve::LiveTelemetry> telemetry;
  std::unique_ptr<serve::HttpServer> http;
  std::string sock_path;
  serve::ListenSpec spec;

  explicit HttpFixture(const std::string& tag) {
    serve::LiveTelemetry::Config tc;
    tc.metrics = &reg;
    tc.sample_interval_ms = 0;  // no sampler thread; tests drive tick()
    telemetry = std::make_unique<serve::LiveTelemetry>(tc);
    sock_path = "/tmp/sixdust-http-" + tag + "-" +
                std::to_string(::getpid()) + ".sock";
    serve::HttpServer::Config hc;
    hc.listen.kind = serve::ListenSpec::Kind::kUnix;
    hc.listen.path = sock_path;
    hc.metrics = &reg;
    hc.handler = serve::scrape_handler(&reg, telemetry.get());
    http = std::make_unique<serve::HttpServer>(std::move(hc));
    std::string error;
    EXPECT_TRUE(http->start(&error)) << error;
    spec.kind = serve::ListenSpec::Kind::kUnix;
    spec.path = sock_path;
  }
  ~HttpFixture() { http->stop(); }
};

TEST(ServeHttp, ScrapeRoutesAnswerMetricsStatsHealthz) {
  HttpFixture fx("routes");
  fx.reg.counter("t.scrape_total", Stability::kVolatile).add(7);
  fx.telemetry->record_query(Op::kLookup, 42'000);

  const auto metrics = serve::http_get(fx.spec, "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("t_scrape_total"), std::string::npos)
      << "/metrics must include volatile metrics";

  const auto stats = serve::http_get(fx.spec, "/stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status, 200);
  const auto doc = json_parse(stats->body);
  ASSERT_TRUE(doc && doc->is_object()) << stats->body;
  EXPECT_EQ(doc->find("schema")->str, "sixdust-stats/1");
  const JsonValue* ops = doc->find("ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->find("lookup")->find("count")->u64(), 1u);

  const auto health = serve::http_get(fx.spec, "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  // Query strings are stripped before routing; unknown routes 404.
  const auto with_query = serve::http_get(fx.spec, "/stats?pretty=1");
  ASSERT_TRUE(with_query.has_value());
  EXPECT_EQ(with_query->status, 200);
  const auto missing = serve::http_get(fx.spec, "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  const auto ts = serve::http_get(fx.spec, "/timeseries");
  ASSERT_TRUE(ts.has_value());
  EXPECT_EQ(ts->status, 200);
  EXPECT_NE(ts->body.find("sixdust-timeseries/1"), std::string::npos);
}

TEST(ServeHttp, HostileRequestsGetStatusCodesNotCrashes) {
  HttpFixture fx("hostile");
  // Malformed request line.
  EXPECT_NE(raw_http_exchange(fx.sock_path, "BOGUS\r\n\r\n")
                .find("HTTP/1.0 400"),
            std::string::npos);
  // Control bytes in the request line.
  EXPECT_NE(raw_http_exchange(fx.sock_path, "G\x02T /x HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 400"),
            std::string::npos);
  // Missing version token.
  EXPECT_NE(raw_http_exchange(fx.sock_path, "GET /stats\r\n\r\n")
                .find("HTTP/1.0 400"),
            std::string::npos);
  // Well-formed but non-GET.
  EXPECT_NE(raw_http_exchange(fx.sock_path, "POST /stats HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405"),
            std::string::npos);
  // Headers larger than max_request_bytes (8 KiB default): 431.
  const std::string oversized =
      "GET /stats HTTP/1.0\r\nX-Pad: " + std::string(9000, 'a') + "\r\n\r\n";
  EXPECT_NE(raw_http_exchange(fx.sock_path, oversized).find("HTTP/1.0 431"),
            std::string::npos);
  // And the endpoint still serves normally after all of that.
  const auto after = serve::http_get(fx.spec, "/healthz");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);
}

TEST(ServeHttp, SlowlorisConnectionNeverWedgesItsLane) {
  HttpFixture fx("slowloris");  // one reader lane: the worst case
  // A client that sends half a request line and then just... stops.
  const int slow_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(slow_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                fx.sock_path.c_str());
  ASSERT_EQ(::connect(slow_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  ASSERT_GT(::send(slow_fd, "GET /st", 7, MSG_NOSIGNAL), 0);

  // The stalled connection must not block anyone else on the same lane.
  for (int i = 0; i < 5; ++i) {
    const auto res = serve::http_get(fx.spec, "/healthz");
    ASSERT_TRUE(res.has_value()) << "request " << i << " wedged";
    EXPECT_EQ(res->status, 200);
  }

  // The slow client finally finishes its request — and still gets served.
  ASSERT_GT(::send(slow_fd, "ats HTTP/1.0\r\n\r\n", 16, MSG_NOSIGNAL), 0);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::recv(slow_fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(slow_fd);
  EXPECT_NE(out.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(out.find("sixdust-stats/1"), std::string::npos);
}

// --- watchdog (synthetic clocks via tick()) ---------------------------------

TEST(ServeTelemetryWatchdog, SlowQueriesAreCountedAndLogged) {
  const std::string log_path = "/tmp/sixdust-slowlog-" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  serve::LiveTelemetry::Config tc;
  tc.sample_interval_ms = 0;
  tc.slow_query_us = 100;
  tc.slow_query_log = log_path;
  serve::LiveTelemetry telemetry(tc);
  std::string error;
  ASSERT_TRUE(telemetry.start(&error)) << error;  // opens the log

  telemetry.record_query(Op::kLookup, 150'000);  // 150 µs: slow
  telemetry.record_query(Op::kLookup, 50'000);   // 50 µs: fine
  telemetry.record_query(Op::kAlias, 2'000'000);  // 2 ms: slow
  EXPECT_EQ(telemetry.slow_query_count(), 2u);
  // Slow queries inform, they do not flip health on their own.
  EXPECT_TRUE(telemetry.verdict().healthy);
  telemetry.stop();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const auto first = json_parse(lines[0]);
  ASSERT_TRUE(first && first->is_object()) << lines[0];
  EXPECT_EQ(first->find("op")->str, "lookup");
  EXPECT_EQ(first->find("us")->u64(), 150u);
  EXPECT_EQ(first->find("threshold_us")->u64(), 100u);
  const auto second = json_parse(lines[1]);
  ASSERT_TRUE(second && second->is_object());
  EXPECT_EQ(second->find("op")->str, "alias");
  std::remove(log_path.c_str());
}

TEST(ServeTelemetryWatchdog, EpochSwapOverrunFlipsVerdictUntilAGoodSwap) {
  serve::LiveTelemetry::Config tc;
  tc.sample_interval_ms = 0;
  tc.epoch_swap_budget_ms = 1;
  serve::LiveTelemetry telemetry(tc);
  EXPECT_TRUE(telemetry.verdict().healthy);

  telemetry.record_freeze(5'000'000);            // 5 ms freeze
  telemetry.record_publish(3, 2'000'000, {});    // +2 ms publish: overrun
  EXPECT_EQ(telemetry.epoch_overruns(), 1u);
  const auto bad = telemetry.verdict();
  EXPECT_FALSE(bad.healthy);
  ASSERT_EQ(bad.reasons.size(), 1u);
  EXPECT_NE(bad.reasons[0].find("overran its budget"), std::string::npos);
  // The verdict JSON carries the reason too (what /healthz serves as 503).
  EXPECT_NE(bad.json().find("overran its budget"), std::string::npos);

  // A swap back inside the budget restores health; the overrun stays
  // counted.
  telemetry.record_freeze(100'000);
  telemetry.record_publish(4, 100'000, {});
  EXPECT_TRUE(telemetry.verdict().healthy);
  EXPECT_EQ(telemetry.epoch_overruns(), 1u);
}

TEST(ServeTelemetryWatchdog, StalledReaderLaneIsFlagged) {
  MetricsRegistry reg;
  SnapshotManager snaps;
  serve::Server::Config sc;
  sc.listen.kind = serve::ListenSpec::Kind::kUnix;
  sc.listen.path = "/tmp/sixdust-serve-stall-" + std::to_string(::getpid()) +
                   ".sock";
  sc.readers = 2;
  sc.metrics = &reg;
  serve::Server server(sc, &snaps);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::LiveTelemetry::Config tc;
  tc.sample_interval_ms = 0;
  tc.lane_stall_ms = 2'000;
  serve::LiveTelemetry telemetry(tc);
  telemetry.set_server(&server);

  // Wait until every lane has polled at least once.
  for (int i = 0; i < 200; ++i) {
    const auto lanes = server.lane_stats();
    bool all = !lanes.empty();
    for (const auto& l : lanes) all = all && l.ticks > 0;
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Live lanes tick between the two synthetic samples: healthy.
  telemetry.tick(10'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // > kPollMs
  telemetry.tick(13'000);
  EXPECT_TRUE(telemetry.verdict().healthy);

  // Stop the server: tick counters freeze, and a synthetic 3 s gap with
  // no movement crosses the 2 s stall threshold.
  server.stop();
  telemetry.tick(20'000);
  telemetry.tick(23'000);
  const auto verdict = telemetry.verdict();
  EXPECT_FALSE(verdict.healthy);
  ASSERT_FALSE(verdict.reasons.empty());
  EXPECT_NE(verdict.reasons[0].find("stopped draining"), std::string::npos);
}

TEST(ServeTelemetryWatchdog, MetricsRewriteIsAtomicTempPlusRename) {
  const std::string out_path = "/tmp/sixdust-metrics-rw-" +
                               std::to_string(::getpid()) + ".json";
  std::remove(out_path.c_str());
  MetricsRegistry reg;
  reg.counter("t.rewrites", Stability::kVolatile).add(3);
  serve::LiveTelemetry::Config tc;
  tc.metrics = &reg;
  tc.sample_interval_ms = 0;
  tc.metrics_out = out_path;
  tc.metrics_interval_ms = 100;
  serve::LiveTelemetry telemetry(tc);

  telemetry.tick(1'000);  // first rewrite
  {
    std::ifstream in(out_path);
    ASSERT_TRUE(in.good()) << "metrics file missing after tick";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("t.rewrites"), std::string::npos);
  }
  // No leftover temp file — the rename happened.
  std::ifstream tmp(out_path + ".tmp");
  EXPECT_FALSE(tmp.good());

  reg.counter("t.rewrites", Stability::kVolatile).add(4);
  telemetry.tick(1'050);  // before the interval: no rewrite yet
  telemetry.tick(1'200);  // due again
  std::ifstream in(out_path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"value\":7"), std::string::npos) << buf.str();
  std::remove(out_path.c_str());
}

// --- end to end: server-side vs client-side latency -------------------------

TEST(ServeEndToEnd, StatsQuantilesLowerBoundLoadgenClientLatency) {
  const auto world = build_test_world(42);
  HitlistService service(HitlistService::Config{});
  service.run(*world, 2);
  SnapshotManager snaps(&service.metrics());
  snaps.publish(serve::freeze_epoch(service, *world, 1));

  serve::LiveTelemetry::Config tc;
  tc.metrics = &service.metrics();
  tc.snaps = &snaps;
  tc.sample_interval_ms = 0;
  serve::LiveTelemetry telemetry(tc);

  serve::Server::Config sc;
  sc.listen.kind = serve::ListenSpec::Kind::kUnix;
  sc.listen.path = "/tmp/sixdust-serve-agree-" + std::to_string(::getpid()) +
                   ".sock";
  sc.readers = 2;
  sc.metrics = &service.metrics();
  sc.telemetry = &telemetry;
  serve::Server server(sc, &snaps);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  telemetry.set_server(&server);

  serve::LoadgenConfig lg;
  lg.target = serve::parse_listen_spec(server.endpoint()).value();
  lg.concurrency = 3;
  lg.requests = 1500;
  lg.connect_timeout_ms = 2000;
  serve::LoadgenReport report;
  ASSERT_TRUE(serve::run_loadgen(lg, &report, &error)) << error;
  server.stop();
  ASSERT_EQ(report.dropped, 0u);

  // Every request the clients sent was recorded in exactly one op lane.
  LatencySnapshot server_all;
  for (unsigned lane = 0;
       lane < static_cast<unsigned>(serve::OpLane::kCount); ++lane)
    server_all.merge(
        telemetry.op_snapshot(static_cast<serve::OpLane>(lane)));
  EXPECT_EQ(server_all.count, report.sent);

  // Agreement within bucket resolution: the server-side handle time is a
  // strict lower bound on the client RTT, so every server quantile must
  // sit at or below the matching client quantile, modulo one histogram
  // sub-bucket (6.25%) of slack on the client value.
  const auto client_ns = [](std::uint64_t us) { return us * 1000; };
  const auto slack = [](std::uint64_t ns) { return ns / 16 + 1000; };
  EXPECT_LE(server_all.p50_ns(),
            client_ns(report.p50_us) + slack(client_ns(report.p50_us)));
  EXPECT_LE(server_all.quantile_ns(0.95),
            client_ns(report.p95_us) + slack(client_ns(report.p95_us)));
  EXPECT_LE(server_all.p99_ns(),
            client_ns(report.p99_us) + slack(client_ns(report.p99_us)));
  EXPECT_GT(server_all.p50_ns(), 0u);

  // And /stats reports exactly what op_snapshot() reports.
  const auto doc = json_parse(telemetry.stats_json());
  ASSERT_TRUE(doc && doc->is_object());
  const JsonValue* ops = doc->find("ops");
  ASSERT_NE(ops, nullptr);
  std::uint64_t stats_count = 0;
  for (const auto& [name, v] : ops->obj) stats_count += v.find("count")->u64();
  EXPECT_EQ(stats_count, report.sent);
}

}  // namespace
}  // namespace sixdust
