// Tests for the run-health analyzer (src/analysis/health.hpp) and the
// snapshot/JSON round trip it depends on (src/obs/json_mini.hpp). The
// centrepiece is the ISSUE acceptance scenario: two snapshots that differ
// only by a GFW injection surge must flag exactly the gfw dimension.

#include <gtest/gtest.h>

#include <string>

#include "analysis/health.hpp"
#include "obs/json_mini.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sixdust {
namespace {

// --- json_mini --------------------------------------------------------------

TEST(JsonMini, ParsesValuesAndPreservesBigIntegers) {
  const auto doc = json_parse(
      R"({"a": [1, true, null, "xé\n"], "big": 18446744073709551615})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->arr.size(), 4u);
  EXPECT_EQ(a->arr[0].u64(), 1u);
  EXPECT_TRUE(a->arr[1].boolean);
  EXPECT_EQ(a->arr[3].str, "x\xc3\xa9\n");
  // 2^64-1 survives via the raw token (a double would truncate).
  EXPECT_EQ(doc->find("big")->u64(), 18446744073709551615ull);
}

TEST(JsonMini, RejectsMalformedInput) {
  EXPECT_FALSE(json_parse("{\"a\":").has_value());
  EXPECT_FALSE(json_parse("{} trailing").has_value());
  EXPECT_FALSE(json_parse("{'single':1}").has_value());
  EXPECT_FALSE(json_parse("").has_value());
}

TEST(JsonMini, SnapshotRoundTrip) {
  MetricsRegistry reg;
  reg.counter("t.count{label=\"weird\\name\"}").add(7);
  reg.gauge("t.gauge").set(-3);
  const std::uint64_t bounds[] = {10, 100};
  auto& h = reg.histogram("t.hist", bounds);
  h.record(5);
  h.record(50);
  h.record(500);

  const auto snap = reg.snapshot();
  const auto parsed = parse_metrics_snapshot(snap.to_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->samples.size(), snap.samples.size());
  EXPECT_EQ(parsed->counter_value("t.count{label=\"weird\\name\"}"), 7u);
  const MetricSample* g = parsed->find("t.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, -3);
  const MetricSample* hist = parsed->find("t.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->bounds, (std::vector<std::uint64_t>{10, 100}));
  EXPECT_EQ(hist->buckets, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 555u);
  // And the round trip is a fixed point of to_json.
  EXPECT_EQ(parsed->to_json(), snap.to_json());
}

TEST(JsonMini, SnapshotParserRejectsWrongSchema) {
  EXPECT_FALSE(parse_metrics_snapshot(R"({"schema":"other/1"})").has_value());
  EXPECT_FALSE(parse_metrics_snapshot("not json").has_value());
}

// --- health analyzer --------------------------------------------------------

/// Baseline run shape: two probed protocols, a deployed GFW filter with a
/// small injection background, an aliased-prefix gauge, and a two-source
/// input mix. `udp53_answered`/`injected_*`/`inspected` are the knobs the
/// surge scenario turns.
struct RunShape {
  std::uint64_t icmp_answered = 300;
  std::uint64_t udp53_answered = 250;
  std::uint64_t inspected = 250;
  std::uint64_t kept = 240;
  std::uint64_t injected_a = 5;
  std::uint64_t injected_teredo = 5;
  std::int64_t aliased = 40;
  std::uint64_t input_dns = 500;
  std::uint64_t input_ct = 300;
};

MetricsSnapshot make_snapshot(const RunShape& s) {
  MetricsRegistry reg;
  reg.counter("scanner.probes_sent{proto=icmp}").add(1000);
  reg.counter("scanner.answered{proto=icmp}").add(s.icmp_answered);
  reg.counter("scanner.probes_sent{proto=udp53}").add(1000);
  reg.counter("scanner.answered{proto=udp53}").add(s.udp53_answered);
  reg.counter("gfw.records_inspected").add(s.inspected);
  reg.counter("gfw.records_kept").add(s.kept);
  reg.counter("gfw.injected{kind=a_record}").add(s.injected_a);
  reg.counter("gfw.injected{kind=teredo}").add(s.injected_teredo);
  reg.gauge("service.aliased_prefixes").set(s.aliased);
  reg.counter("service.input_new{source=dns_aaaa}").add(s.input_dns);
  reg.counter("service.input_new{source=ct_log}").add(s.input_ct);
  return reg.snapshot();
}

TEST(Health, IdenticalSnapshotsAreHealthy) {
  const auto snap = make_snapshot(RunShape{});
  const auto report = analyze_health(snap, snap);
  EXPECT_TRUE(report.healthy());
  EXPECT_FALSE(report.dimensions_checked.empty());
  EXPECT_NE(report.text().find("HEALTHY"), std::string::npos);
}

TEST(Health, GfwSurgeFlagsExactlyTheGfwDimension) {
  // The ISSUE acceptance scenario: the current run suffers an injection
  // surge — UDP/53 "answers" balloon with forged records while the set of
  // genuine responders (records kept) is unchanged. Only the gfw
  // dimension may fire; in particular the udp53 responsive rate must be
  // computed over kept records so the surge does not read as a
  // responsiveness jump.
  RunShape base;
  RunShape surge = base;
  surge.udp53_answered = 1000;
  surge.inspected = 1000;
  surge.injected_a = 400;
  surge.injected_teredo = 370;

  const auto report =
      analyze_health(make_snapshot(base), make_snapshot(surge));
  ASSERT_EQ(report.findings.size(), 1u)
      << "expected exactly the gfw finding, got:\n"
      << report.text();
  EXPECT_EQ(report.findings[0].dim, HealthDimension::kGfw);
  EXPECT_GT(report.findings[0].delta, 0.5);
  EXPECT_NE(report.text().find("DRIFT"), std::string::npos);
}

TEST(Health, ResponsivenessDropIsFlaggedPerProtocol) {
  RunShape base;
  RunShape decayed = base;
  decayed.icmp_answered = 100;  // 0.30 -> 0.10
  const auto report =
      analyze_health(make_snapshot(base), make_snapshot(decayed));
  ASSERT_EQ(report.findings.size(), 1u) << report.text();
  EXPECT_EQ(report.findings[0].dim, HealthDimension::kResponsiveness);
  EXPECT_EQ(report.findings[0].subject, "icmp");
  EXPECT_NEAR(report.findings[0].delta, -0.2, 1e-9);
}

TEST(Health, AliasedAndInputMixDrift) {
  RunShape base;
  RunShape shifted = base;
  shifted.aliased = 80;       // +100% relative
  shifted.input_dns = 100;    // mix 62.5/37.5 -> 25/75
  shifted.input_ct = 300;
  const auto report =
      analyze_health(make_snapshot(base), make_snapshot(shifted));
  bool saw_aliased = false, saw_input = false;
  for (const auto& f : report.findings) {
    saw_aliased |= f.dim == HealthDimension::kAliased;
    saw_input |= f.dim == HealthDimension::kInputMix;
    EXPECT_NE(f.dim, HealthDimension::kGfw) << report.text();
    EXPECT_NE(f.dim, HealthDimension::kResponsiveness) << report.text();
  }
  EXPECT_TRUE(saw_aliased) << report.text();
  EXPECT_TRUE(saw_input) << report.text();
}

TEST(Health, ThresholdsAreConfigurable) {
  RunShape base;
  RunShape nudged = base;
  nudged.icmp_answered = 320;  // +0.02 rate delta
  const auto a = make_snapshot(base);
  const auto b = make_snapshot(nudged);
  EXPECT_TRUE(analyze_health(a, b).healthy());  // under default 0.05
  HealthThresholds tight;
  tight.resp_rate_delta = 0.01;
  EXPECT_FALSE(analyze_health(a, b, tight).healthy());
}

TEST(Health, SilentWhenGfwNeverRan) {
  // Pre-deployment runs (records_inspected == 0) have no kept counter to
  // rate against; the analyzer must fall back to raw answers and not
  // invent a gfw dimension.
  RunShape base;
  base.inspected = 0;
  base.kept = 0;
  base.injected_a = 0;
  base.injected_teredo = 0;
  const auto snap = make_snapshot(base);
  const auto report = analyze_health(snap, snap);
  EXPECT_TRUE(report.healthy());
}

TEST(Health, TraceSummaryReadsChromeTrace) {
  TraceRecorder rec;
  {
    Span s = rec.span("scanner.scan", SpanCat::kScanner);
    rec.sim_advance_us(1000);
  }
  (void)rec.span("service.step", SpanCat::kService);
  const auto summary = trace_summary(rec.chrome_json());
  ASSERT_TRUE(summary.has_value());
  EXPECT_NE(summary->find("scanner"), std::string::npos);
  EXPECT_NE(summary->find("service"), std::string::npos);
  EXPECT_FALSE(trace_summary("{\"schema\":\"other\"}").has_value());
  EXPECT_FALSE(trace_summary("junk").has_value());
}

}  // namespace
}  // namespace sixdust
