// Randomized differential tests: the LPM table against a naive reference,
// the IPv6 codec against the platform's inet_pton/inet_ntop, prefix
// arithmetic against bit-level reference implementations, the metrics
// registry against the scan results it accounts for, and the parsers that
// read outside bytes (address/prefix lists, serve frames, HTTP lines).

#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_pool.hpp"
#include "gfw/detector.hpp"
#include "netbase/addr_batch.hpp"
#include "netbase/addrio.hpp"
#include "netbase/frozen_lpm.hpp"
#include "netbase/prefix_set.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "scanner/zmap6.hpp"
#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_manager.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

Ipv6 random_addr(Rng& rng) { return Ipv6::from_words(rng.next(), rng.next()); }

/// Random prefix with a bias toward realistic lengths.
Prefix random_prefix(Rng& rng) {
  static constexpr int kLens[] = {16, 24, 28, 32, 40, 48, 56, 64, 96, 128};
  return Prefix::make(random_addr(rng), kLens[rng.below(10)]);
}

struct NaiveLpm {
  std::vector<std::pair<Prefix, int>> entries;

  void insert(const Prefix& p, int v) {
    for (auto& [q, qv] : entries) {
      if (q == p) {
        qv = v;
        return;
      }
    }
    entries.emplace_back(p, v);
  }

  [[nodiscard]] std::optional<int> longest_match(const Ipv6& a) const {
    std::optional<int> best;
    int best_len = -1;
    for (const auto& [p, v] : entries) {
      if (p.contains(a) && p.len() > best_len) {
        best_len = p.len();
        best = v;
      }
    }
    return best;
  }
};

// The suite name predates the column builder; it is kept so test history
// carries over.
class TrieFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TrieFuzz, MatchesNaiveReference) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  std::vector<std::pair<Prefix, int>> column;
  NaiveLpm naive;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    const Prefix p = random_prefix(rng);
    column.emplace_back(p, i);
    naive.insert(p, i);
  }
  const FrozenLpm<int> lpm(column);
  // Probe random addresses plus addresses inside inserted prefixes (to
  // exercise matches at all depths).
  for (int i = 0; i < 400; ++i) {
    Ipv6 probe = random_addr(rng);
    if (i % 2 == 0 && !column.empty())
      probe = column[rng.below(column.size())].first.random_address(rng.next());
    const auto got = lpm.longest_match(probe);
    const auto want = naive.longest_match(probe);
    ASSERT_EQ(got.has_value(), want.has_value()) << probe.str();
    if (got) {
      EXPECT_EQ(*got->value, *want) << probe.str();
    }
  }
  // Every distinct inserted prefix is stored once, in (base, len) order,
  // and resolves to its value where it is the most specific match.
  std::vector<Prefix> want;
  for (const auto& [p, v] : naive.entries) {
    want.push_back(p);
    const auto m = lpm.longest_match(p.base());
    ASSERT_TRUE(m.has_value()) << p.str();
    if (m->prefix == p) {
      EXPECT_EQ(*m->value, v) << p.str();
    }
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(lpm.prefixes(), want);
}

INSTANTIATE_TEST_SUITE_P(Densities, TrieFuzz,
                         ::testing::Values(1, 5, 25, 100, 500));

TEST(Ipv6Fuzz, FormatAgreesWithInetNtop) {
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    Ipv6 a = random_addr(rng);
    // Mix in zero-heavy addresses to stress the compression rules.
    if (i % 3 == 0) {
      for (int b = 0; b < 96; ++b)
        a.set_bit(static_cast<int>(rng.below(128)), false);
    }
    unsigned char bytes[16];
    for (int b = 0; b < 16; ++b) bytes[b] = a.byte(b);
    char buf[INET6_ADDRSTRLEN];
    ASSERT_NE(inet_ntop(AF_INET6, bytes, buf, sizeof buf), nullptr);
    EXPECT_EQ(a.str(), buf);
  }
}

TEST(Ipv6Fuzz, ParseAgreesWithInetPton) {
  Rng rng(78);
  for (int i = 0; i < 3000; ++i) {
    // Round trip through the platform's formatter, then compare parsers.
    Ipv6 a = random_addr(rng);
    if (i % 2 == 0) a = Ipv6::from_words(a.hi() & 0xffff, a.lo() & 0xff);
    unsigned char bytes[16];
    for (int b = 0; b < 16; ++b) bytes[b] = a.byte(b);
    char buf[INET6_ADDRSTRLEN];
    ASSERT_NE(inet_ntop(AF_INET6, bytes, buf, sizeof buf), nullptr);
    const auto parsed = Ipv6::parse(buf);
    ASSERT_TRUE(parsed.has_value()) << buf;
    EXPECT_EQ(*parsed, a) << buf;
  }
}

TEST(Ipv6Fuzz, ParseRejectsWhatInetPtonRejects) {
  // Textual mutations of valid addresses: both parsers must agree on
  // acceptance (our parser must not be more lenient).
  Rng rng(79);
  const char kMutations[] = ":gx.12345";
  for (int i = 0; i < 2000; ++i) {
    unsigned char bytes[16];
    const Ipv6 a = random_addr(rng);
    for (int b = 0; b < 16; ++b) bytes[b] = a.byte(b);
    char buf[INET6_ADDRSTRLEN];
    ASSERT_NE(inet_ntop(AF_INET6, bytes, buf, sizeof buf), nullptr);
    std::string text = buf;
    // Mutate one character.
    text[rng.below(text.size())] =
        kMutations[rng.below(sizeof kMutations - 1)];
    unsigned char out[16];
    const bool pton_ok = inet_pton(AF_INET6, text.c_str(), out) == 1;
    const bool ours_ok = Ipv6::parse(text).has_value();
    if (!pton_ok) {
      EXPECT_FALSE(ours_ok) << text;
    } else {
      EXPECT_TRUE(ours_ok) << text;
    }
  }
}

TEST(PrefixFuzz, MaskMatchesBitReference) {
  Rng rng(80);
  for (int i = 0; i < 2000; ++i) {
    const Ipv6 a = random_addr(rng);
    const int len = static_cast<int>(rng.below(129));
    const Ipv6 masked = Prefix::mask(a, len);
    for (int b = 0; b < 128; ++b) {
      if (b < len) {
        EXPECT_EQ(masked.bit(b), a.bit(b)) << len << " bit " << b;
      } else {
        EXPECT_FALSE(masked.bit(b)) << len << " bit " << b;
      }
    }
  }
}

TEST(PrefixFuzz, ContainmentIsConsistentWithMask) {
  Rng rng(81);
  for (int i = 0; i < 2000; ++i) {
    const Prefix p = random_prefix(rng);
    const Ipv6 inside = p.random_address(rng.next());
    EXPECT_TRUE(p.contains(inside));
    // An address differing in a covered bit is outside.
    if (p.len() > 0) {
      Ipv6 outside = inside;
      const int flip = static_cast<int>(rng.below(static_cast<std::uint64_t>(p.len())));
      outside.set_bit(flip, !outside.bit(flip));
      EXPECT_FALSE(p.contains(outside));
    }
    // last() is inside, last()+1 is outside (unless ::/0).
    EXPECT_TRUE(p.contains(p.last()));
    if (p.len() > 0 && p.last() != Ipv6::from_words(~0ULL, ~0ULL)) {
      EXPECT_FALSE(p.contains(p.last().plus(1)));
    }
  }
}

TEST(PrefixFuzz, StringRoundTrip) {
  Rng rng(82);
  for (int i = 0; i < 2000; ++i) {
    const Prefix p = random_prefix(rng);
    const auto back = Prefix::parse(p.str());
    ASSERT_TRUE(back.has_value()) << p.str();
    EXPECT_EQ(*back, p);
  }
}

// --- batch engine differential fuzz ----------------------------------------
//
// The radix sort-unique against std::sort + std::unique on adversarial
// address mixes: shared prefixes of every depth (so any subset of the 16
// digit passes gets skipped), duplicates, runs, and full-random tails.

class AddrBatchFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddrBatchFuzz, RadixSortUniqueMatchesStdSort) {
  Rng rng(GetParam());
  std::vector<Ipv6> addrs;
  const std::size_t n = 600 + rng.below(4000);  // above the radix cutoff
  while (addrs.size() < n) {
    switch (rng.below(4)) {
      case 0:  // shared-prefix cluster at a random depth
      {
        const Prefix p = random_prefix(rng);
        const std::size_t k = 1 + rng.below(64);
        for (std::size_t i = 0; i < k; ++i)
          addrs.push_back(p.random_address(rng.next()));
        break;
      }
      case 1:  // consecutive run (radix worst case: only low digits vary)
      {
        Ipv6 base = random_addr(rng);
        const std::size_t k = 1 + rng.below(64);
        for (std::size_t i = 0; i < k; ++i) addrs.push_back(base.plus(i));
        break;
      }
      case 2:  // exact duplicates
        if (!addrs.empty()) addrs.push_back(addrs[rng.below(addrs.size())]);
        break;
      default:
        addrs.push_back(random_addr(rng));
    }
  }
  std::vector<Ipv6> want = addrs;
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());

  AddrBatch batch{std::span<const Ipv6>(addrs)};
  batch.sort_unique();
  EXPECT_EQ(batch.to_vector(), want);

  const auto pool = ThreadPool::create(2 + static_cast<unsigned>(GetParam() % 6));
  AddrBatch parallel{std::span<const Ipv6>(addrs)};
  parallel.sort_unique(pool.get());
  EXPECT_EQ(parallel.to_vector(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddrBatchFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- metrics differential fuzz ---------------------------------------------
//
// Random worlds, instrumented scans: whatever the registry reports must
// decompose exactly into the scan results it was fed.

class MetricsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<Ipv6> world_targets(const World& world, ScanDate date) {
  std::vector<KnownAddress> known;
  world.enumerate_known(date, known);
  std::vector<Ipv6> targets;
  targets.reserve(known.size());
  for (const auto& k : known) targets.push_back(k.addr);
  return targets;
}

TEST_P(MetricsFuzz, ScanCountersMatchScanResults) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const auto world = build_test_world(seed);
  const ScanDate date{static_cast<int>(rng.below(46))};
  const std::vector<Ipv6> targets = world_targets(*world, date);
  ASSERT_FALSE(targets.empty());

  // A random blocklist over a few target /48s exercises the blocked path.
  std::vector<Prefix> blocked;
  for (int i = 0; i < 5; ++i)
    blocked.push_back(Prefix::make(targets[rng.below(targets.size())], 48));
  const PrefixSet blocklist(blocked);

  MetricsRegistry reg;
  Zmap6::Config zc;
  zc.seed = seed;
  zc.loss = 0.02;
  zc.blocklist = &blocklist;
  zc.metrics = &reg;
  Zmap6 zmap(zc);

  std::uint64_t total_sent = 0;
  for (Proto p : kAllProtos) {
    const auto result = zmap.scan(*world, targets, p, date);
    total_sent += result.probes_sent;
    const std::string label = "{proto=" + proto_token(p) + "}";
    const auto snap = reg.snapshot();
    // Counters mirror the ScanResult fields exactly.
    EXPECT_EQ(snap.counter_value("scanner.probes_sent" + label),
              result.probes_sent);
    EXPECT_EQ(snap.counter_value("scanner.answered" + label),
              result.responsive.size());
    EXPECT_EQ(snap.counter_value("scanner.blocked" + label), result.blocked);
    // A target answers at most once per retry round it was probed in.
    EXPECT_GE(snap.counter_value("scanner.probes_sent" + label),
              snap.counter_value("scanner.answered" + label));
  }

  // Histogram totals equal the counter totals: one sample per scan, the
  // sample values summing to the probes-sent counters.
  const auto snap = reg.snapshot();
  const auto* hist = snap.find("scanner.probes_per_scan");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kAllProtos.size());
  EXPECT_EQ(hist->sum, total_sent);
  std::uint64_t bucket_total = 0;
  for (const auto b : hist->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->count);
}

TEST_P(MetricsFuzz, GfwFilterCountersDecomposeAnswered) {
  const std::uint64_t seed = GetParam();
  const auto world = build_test_world(seed + 9000);
  const ScanDate date{43};  // inside the Teredo-injection era
  const std::vector<Ipv6> targets = world_targets(*world, date);
  ASSERT_FALSE(targets.empty());

  MetricsRegistry reg;
  Zmap6::Config zc;
  zc.seed = seed;
  zc.metrics = &reg;
  Zmap6 zmap(zc);
  const auto result = zmap.scan(*world, targets, Proto::Udp53, date);

  GfwFilter gfw;
  gfw.set_metrics(&reg);
  const auto kept = gfw.filter_scan(result);

  const auto snap = reg.snapshot();
  const auto inspected = snap.counter_value("gfw.records_inspected");
  const auto kept_c = snap.counter_value("gfw.records_kept");
  const auto dropped = snap.counter_value("gfw.records_dropped");
  const auto injected = snap.counter_value("gfw.injected{kind=a_record}") +
                        snap.counter_value("gfw.injected{kind=teredo}");

  // Every answered record carrying DNS evidence was inspected, and each
  // inspected record was either kept or dropped — nothing vanishes.
  std::size_t with_dns = 0;
  for (const auto& rec : result.responsive)
    if (rec.dns) ++with_dns;
  EXPECT_EQ(inspected, with_dns);
  EXPECT_EQ(inspected, kept_c + dropped);
  EXPECT_EQ(kept_c, kept.size());
  // Drops only happen on injected evidence; taints are per-address, so at
  // most one new taint per injected record.
  EXPECT_GE(injected, dropped);
  EXPECT_LE(snap.counter_value("gfw.taint_new"), injected);
  EXPECT_EQ(snap.counter_value("gfw.taint_new"), gfw.tainted_count());
  // answered = cleanly-kept + injected-evidence + answers without DNS data.
  EXPECT_GE(snap.counter_value("scanner.answered{proto=udp53}"),
            kept_c + dropped);
  EXPECT_GE(snap.counter_value("scanner.probes_sent{proto=udp53}"),
            snap.counter_value("scanner.answered{proto=udp53}"));
}

INSTANTIATE_TEST_SUITE_P(RandomWorlds, MetricsFuzz,
                         ::testing::Values(201u, 202u, 203u));

// --- serve protocol fuzz ----------------------------------------------------
//
// Hostile bytes against the daemon's query plane: random, truncated, and
// oversized frames through the FrameDecoder, and random request bodies
// through the QueryEngine. Nothing may crash; every malformed body must
// yield a parseable error frame plus a serve.proto_errors bump; valid
// random requests must agree with direct snapshot lookups.

/// A small fixed snapshot for the engine to answer from.
std::shared_ptr<const serve::EpochSnapshot> fuzz_snapshot(Rng& rng) {
  serve::EpochSnapshot::Info info;
  info.epoch = 5;
  info.date = "fuzz";
  std::vector<std::pair<Ipv6, ProtoMask>> responsive;
  for (int i = 0; i < 64; ++i)
    responsive.emplace_back(random_addr(rng), static_cast<ProtoMask>(1));
  std::sort(responsive.begin(), responsive.end());
  responsive.erase(std::unique(responsive.begin(), responsive.end()),
                   responsive.end());
  info.responsive = responsive.size();
  std::vector<Prefix> aliased = {random_prefix(rng), random_prefix(rng)};
  return std::make_shared<const serve::EpochSnapshot>(
      info, std::move(responsive), aliased, nullptr);
}

/// Parse a complete response frame; fails the test if it is malformed.
std::optional<serve::Response> parse_frame(
    const std::vector<std::uint8_t>& frame) {
  if (frame.size() < 4) return std::nullopt;
  if (serve::get_u32(frame.data()) + 4 != frame.size()) return std::nullopt;
  return serve::parse_response(
      std::span<const std::uint8_t>(frame.data() + 4, frame.size() - 4));
}

class ServeProtoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServeProtoFuzz, RandomBodiesAlwaysGetACleanResponse) {
  Rng rng(GetParam());
  serve::SnapshotManager snaps;
  MetricsRegistry reg;
  serve::QueryEngine engine(&snaps, &reg);
  const auto snap = fuzz_snapshot(rng);
  snaps.publish(snap);

  std::uint64_t malformed = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> body(rng.below(40), 0);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
    // Half the time force a plausible op byte so the payload-size checks
    // get exercised, not just the unknown-op path.
    if (!body.empty() && i % 2 == 0)
      body[0] = static_cast<std::uint8_t>(1 + rng.below(5));

    const auto response = parse_frame(engine.handle(body));
    ASSERT_TRUE(response.has_value()) << "unparseable response, iter " << i;
    if (response->op == serve::Op::kError) {
      ++malformed;
      EXPECT_EQ(response->status, serve::Status::kBadRequest);
    }
  }
  ASSERT_GT(malformed, 0u);
  // Every error frame was counted, nothing more.
  EXPECT_EQ(reg.snapshot().counter_value("serve.proto_errors"), malformed);
}

TEST_P(ServeProtoFuzz, ValidRequestsAgreeWithDirectSnapshotCalls) {
  Rng rng(GetParam() + 5000);
  serve::SnapshotManager snaps;
  MetricsRegistry reg;
  serve::QueryEngine engine(&snaps, &reg);
  const auto snap = fuzz_snapshot(rng);
  snaps.publish(snap);
  const auto& rows = snap->responsive();

  for (int i = 0; i < 1000; ++i) {
    // Mix known-responsive addresses with random ones.
    const Ipv6 addr = (i % 3 == 0 && !rows.empty())
                          ? rows[rng.below(rows.size())].first
                          : random_addr(rng);
    switch (rng.below(3)) {
      case 0: {
        const auto r = parse_frame(engine.handle(serve::request_lookup(addr)));
        ASSERT_TRUE(r.has_value());
        const auto want = snap->lookup(addr);
        if (want) {
          ASSERT_EQ(r->status, serve::Status::kOk) << addr.str();
          ASSERT_EQ(r->payload.size(), 1u);
          EXPECT_EQ(r->payload[0], *want);
        } else {
          EXPECT_EQ(r->status, serve::Status::kNotFound) << addr.str();
        }
        break;
      }
      case 1: {
        const auto r = parse_frame(engine.handle(serve::request_alias(addr)));
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(r->status, serve::Status::kOk);
        ASSERT_FALSE(r->payload.empty());
        EXPECT_EQ(r->payload[0] != 0, snap->alias_covers(addr)) << addr.str();
        break;
      }
      default: {
        const auto r =
            parse_frame(engine.handle(serve::request_epoch_info()));
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(r->status, serve::Status::kOk);
        ASSERT_EQ(r->payload.size(), 4u + 6 * 8u);
        EXPECT_EQ(serve::get_u64(r->payload.data() + 44), snap->digest());
        break;
      }
    }
  }
  EXPECT_EQ(reg.snapshot().counter_value("serve.proto_errors"), 0u);
}

TEST_P(ServeProtoFuzz, HostileStreamsNeverBreakTheFrameDecoder) {
  Rng rng(GetParam() + 9000);
  for (int round = 0; round < 200; ++round) {
    // A stream of valid frames with random bodies, chopped at random
    // boundaries: every body must come back intact, in order.
    std::vector<std::vector<std::uint8_t>> bodies;
    std::vector<std::uint8_t> stream;
    const std::size_t n = 1 + rng.below(8);
    for (std::size_t f = 0; f < n; ++f) {
      std::vector<std::uint8_t> body(rng.below(serve::kMaxRequestBody), 0);
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
      const auto framed = serve::frame(body);
      stream.insert(stream.end(), framed.begin(), framed.end());
      bodies.push_back(std::move(body));
    }
    const bool truncate = rng.below(2) == 0;
    std::size_t cut = stream.size();
    if (truncate && !stream.empty()) {
      cut = rng.below(stream.size());
      stream.resize(cut);
    }

    serve::FrameDecoder decoder;
    std::vector<std::vector<std::uint8_t>> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(64), stream.size() - off);
      ASSERT_TRUE(decoder.feed(
          std::span<const std::uint8_t>(stream.data() + off, chunk),
          [&](std::span<const std::uint8_t> b) {
            got.emplace_back(b.begin(), b.end());
          }));
      off += chunk;
    }
    // Exactly the complete frames arrive; the truncated tail stays pending.
    ASSERT_LE(got.size(), bodies.size());
    for (std::size_t f = 0; f < got.size(); ++f) EXPECT_EQ(got[f], bodies[f]);
    if (!truncate) {
      EXPECT_EQ(got.size(), bodies.size());
      EXPECT_EQ(decoder.pending(), 0u);
    }
    EXPECT_FALSE(decoder.dead());

    // An oversized declared length always kills the decoder, whatever came
    // before.
    std::vector<std::uint8_t> poison;
    serve::put_u32(poison, serve::kMaxRequestBody + 1 + static_cast<std::uint32_t>(rng.below(1 << 20)));
    serve::FrameDecoder fresh;
    EXPECT_FALSE(
        fresh.feed(poison, [](std::span<const std::uint8_t>) {
          FAIL() << "oversized frame reached the sink";
        }));
    EXPECT_TRUE(fresh.dead());
    EXPECT_FALSE(fresh.feed(poison, [](std::span<const std::uint8_t>) {}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeProtoFuzz,
                         ::testing::Values(301u, 302u, 303u));

// --- http request-line fuzz (the scrape endpoint's hostile surface) ---------

TEST(HttpLineFuzz, RandomBytesNeverCrashTheParserAndAcceptsStaySane) {
  Rng rng(777);
  for (int iter = 0; iter < 50000; ++iter) {
    const std::size_t len = rng.below(120);
    std::string line;
    line.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
      line.push_back(static_cast<char>(rng.below(256)));
    const auto req = serve::parse_http_request_line(line);
    if (req.has_value()) {
      // Whatever survives must be fully sane: non-empty printable method,
      // an origin-form target, no query-string residue.
      ASSERT_FALSE(req->method.empty());
      ASSERT_FALSE(req->path.empty());
      EXPECT_EQ(req->path[0], '/');
      EXPECT_EQ(req->path.find('?'), std::string::npos);
      for (const char c : req->method) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x21u);
        EXPECT_LE(static_cast<unsigned char>(c), 0x7eu);
      }
    }
  }
}

TEST(HttpLineFuzz, MutatedValidLinesParseOrRejectCleanly) {
  Rng rng(778);
  const std::string base = "GET /stats?limit=5 HTTP/1.0\r\n";
  for (int iter = 0; iter < 50000; ++iter) {
    std::string line = base;
    const unsigned mutations = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(line.size());
      switch (rng.below(3)) {
        case 0: line[pos] = static_cast<char>(rng.below(256)); break;
        case 1: line.erase(pos, 1); break;
        default:
          line.insert(pos, 1, static_cast<char>(rng.below(256)));
          break;
      }
      if (line.empty()) line = "x";
    }
    const auto req = serve::parse_http_request_line(line);
    if (req.has_value()) {
      ASSERT_FALSE(req->path.empty());
      EXPECT_EQ(req->path[0], '/');
    }
  }
}

// --- address/prefix list fuzz (--targets and --blocklist files) ----------

/// The entry the list readers parse from one line: surrounding spaces,
/// tabs and CRs trimmed, a '#' comment cut off (see addrio.hpp).
std::string_view entry_text(std::string_view line) {
  const auto trim = [](std::string_view t) {
    const auto b = t.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) return std::string_view{};
    return t.substr(b, t.find_last_not_of(" \t\r") - b + 1);
  };
  line = trim(line);
  const auto hash = line.find('#');
  return hash == std::string_view::npos ? line : trim(line.substr(0, hash));
}

/// Read `text` as a list. An accepted list must round-trip through the
/// writer; a rejected one must name a line whose entry fails `parse`.
/// Returns whether the list was accepted.
template <typename T, typename Read, typename Write, typename Parse>
bool check_list(const std::string& text, Read read, Write write,
                Parse parse) {
  std::istringstream in(text);
  std::size_t bad = 0;
  const std::optional<std::vector<T>> list = read(in, &bad);
  if (list) {
    std::ostringstream out;
    write(out, std::span<const T>(*list), "fuzz");
    std::istringstream back(out.str());
    const auto again = read(back, nullptr);
    EXPECT_TRUE(again.has_value()) << text;
    if (again) {
      EXPECT_EQ(*again, *list) << text;
    }
    return true;
  }
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      1;
  EXPECT_GE(bad, 1u) << text;
  EXPECT_LE(bad, lines) << text;
  if (bad < 1 || bad > lines) return false;
  std::string_view line = text;
  for (std::size_t i = 1; i < bad; ++i) line.remove_prefix(line.find('\n') + 1);
  line = line.substr(0, line.find('\n'));
  const std::string_view entry = entry_text(line);
  EXPECT_FALSE(entry.empty()) << text;
  EXPECT_FALSE(parse(entry).has_value()) << text;
  return false;
}

/// Feed `text` to both list readers; counts accepted lists per reader.
void check_both_readers(const std::string& text, int* addr_ok,
                        int* prefix_ok) {
  *addr_ok += check_list<Ipv6>(
      text,
      [](std::istream& in, std::size_t* bad) {
        return read_address_list(in, bad);
      },
      [](std::ostream& out, std::span<const Ipv6> v, std::string_view h) {
        write_address_list(out, v, h);
      },
      [](std::string_view t) { return Ipv6::parse(t); });
  *prefix_ok += check_list<Prefix>(
      text,
      [](std::istream& in, std::size_t* bad) {
        return read_prefix_list(in, bad);
      },
      [](std::ostream& out, std::span<const Prefix> v, std::string_view h) {
        write_prefix_list(out, v, h);
      },
      [](std::string_view t) { return Prefix::parse(t); });
}

TEST(AddrIoFuzz, RandomBytesReadCleanly) {
  Rng rng(881);
  // Half the inputs draw from the list alphabet, so some lines parse.
  static constexpr std::string_view kAlphabet = "0123456789abcdef:/.# \t\r\n";
  int addr_ok = 0;
  int prefix_ok = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t len = rng.below(160);
    std::string text;
    for (std::size_t i = 0; i < len; ++i)
      text.push_back(iter % 2 == 0
                         ? static_cast<char>(rng.below(256))
                         : kAlphabet[rng.below(kAlphabet.size())]);
    check_both_readers(text, &addr_ok, &prefix_ok);
  }
  EXPECT_GT(addr_ok, 0);
  EXPECT_GT(prefix_ok, 0);
}

TEST(AddrIoFuzz, MutatedValidListsRoundTripOrNameTheBadLine) {
  Rng rng(882);
  int addr_ok = 0;
  int prefix_ok = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    // A valid list: addresses or prefixes, zero-heavy ones included, with
    // a comment line now and then.
    const bool prefixes = iter % 2 == 0;
    std::string text;
    const std::size_t lines = 1 + rng.below(6);
    for (std::size_t l = 0; l < lines; ++l) {
      if (rng.below(6) == 0) text += "# comment\n";
      Ipv6 a = random_addr(rng);
      if (rng.below(2) == 0)
        a = Ipv6::from_words(a.hi() & 0xffff, a.lo() & 0xff);
      text += prefixes ? Prefix::make(a, static_cast<int>(rng.below(129))).str()
                       : a.str();
      text += '\n';
    }
    const unsigned mutations = static_cast<unsigned>(rng.below(4));
    for (unsigned m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(text.size() + 1);
      switch (rng.below(7)) {
        case 0: text.insert(pos, "#"); break;
        case 1: text.insert(pos, rng.below(2) == 0 ? "\r" : "\t"); break;
        case 2: text.insert(pos, "/129"); break;
        case 3: text.insert(pos, "/"); break;
        case 4: text.insert(pos, "12345"); break;  // an overlong group
        case 5:
          if (pos < text.size()) text[pos] = static_cast<char>(rng.below(256));
          break;
        default:
          if (pos < text.size()) text.erase(pos, 1);
          break;
      }
    }
    check_both_readers(text, &addr_ok, &prefix_ok);
  }
  EXPECT_GT(addr_ok, 0);
  EXPECT_GT(prefix_ok, 0);
}

}  // namespace
}  // namespace sixdust
