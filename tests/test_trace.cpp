// Tests for the span-tracing layer (src/obs/trace.hpp, log.hpp): span
// recording and attributes, ring-buffer overflow, parent linkage through
// nested PhaseTimers, the Chrome trace-event export's JSON validity, the
// structured logger, and the determinism contract of the stable span
// stream — thread invariance on a 5-scan service world plus a golden
// regression over the 12-scan world.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "hitlist/service.hpp"
#include "obs/json_mini.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "topo/world_builder.hpp"

namespace sixdust {
namespace {

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            std::string_view name) {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

TEST(TraceSpan, RecordsNameCategoryAndAttributes) {
  TraceRecorder rec;
  {
    Span s = rec.span("t.work", SpanCat::kScanner);
    s.attr("proto", "icmp").attr("count", std::uint64_t{42});
  }
  const auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "t.work");
  EXPECT_EQ(spans[0].cat, SpanCat::kScanner);
  EXPECT_EQ(spans[0].stability, Stability::kStable);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].first, "proto");
  EXPECT_EQ(spans[0].attrs[0].second, "icmp");
  EXPECT_EQ(spans[0].attrs[1].second, "42");
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceSpan, InertSpanIsSafe) {
  Span inert;
  inert.attr("k", "v").sim_duration_us(5);
  inert.end();  // no-op
  EXPECT_FALSE(inert.active());
  // trace_span without a registry or tracer is also inert.
  Span s1 = trace_span(nullptr, "x", SpanCat::kOther);
  EXPECT_FALSE(s1.active());
  MetricsRegistry reg;
  Span s2 = trace_span(&reg, "x", SpanCat::kOther);
  EXPECT_FALSE(s2.active());
}

TEST(TraceSpan, ParentLinkageAndContext) {
  TraceRecorder rec;
  {
    Span outer = rec.span("t.outer", SpanCat::kService);
    EXPECT_EQ(TraceRecorder::current_context().name, "t.outer");
    {
      Span inner = rec.span("t.inner", SpanCat::kService);
      EXPECT_EQ(TraceRecorder::current_context().name, "t.inner");
    }
    EXPECT_EQ(TraceRecorder::current_context().name, "t.outer");
  }
  EXPECT_EQ(TraceRecorder::current_context().id, 0u);
  const auto spans = rec.collect();
  const SpanRecord* outer = find_span(spans, "t.outer");
  const SpanRecord* inner = find_span(spans, "t.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
}

TEST(TraceSpan, SimulatedClockAndDurations) {
  TraceRecorder rec;
  EXPECT_EQ(rec.sim_now_us(), 0u);
  {
    Span s = rec.span("t.covers_advance", SpanCat::kOther);
    rec.sim_advance_seconds(1.5);
  }
  {
    Span s = rec.span("t.explicit", SpanCat::kOther);
    s.sim_duration_us(250);
  }
  EXPECT_EQ(rec.sim_now_us(), 1'500'000u);
  const auto spans = rec.collect();
  const SpanRecord* covers = find_span(spans, "t.covers_advance");
  const SpanRecord* expl = find_span(spans, "t.explicit");
  ASSERT_NE(covers, nullptr);
  ASSERT_NE(expl, nullptr);
  EXPECT_EQ(covers->sim_start_us, 0u);
  EXPECT_EQ(covers->sim_dur_us, 1'500'000u);
  EXPECT_EQ(expl->sim_start_us, 1'500'000u);
  EXPECT_EQ(expl->sim_dur_us, 250u);
}

TEST(TraceRecorder, RingOverflowDropsOldestAndCounts) {
  TraceRecorder rec(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i)
    (void)rec.span("t.s" + std::to_string(i), SpanCat::kOther);
  const auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest dropped: the survivors are the last four, in push order.
  EXPECT_EQ(spans[0].name, "t.s6");
  EXPECT_EQ(spans[3].name, "t.s9");
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(TraceExport, StableStreamFiltersSortsAndHasSchema) {
  TraceRecorder rec;
  (void)rec.span("t.zeta", SpanCat::kOther);
  (void)rec.span("t.alpha", SpanCat::kOther);
  (void)rec.span("t.volatile", SpanCat::kOther, Stability::kVolatile);
  const std::string stream = rec.stable_stream();
  EXPECT_NE(stream.find("sixdust-trace-stable/1"), std::string::npos);
  EXPECT_EQ(stream.find("t.volatile"), std::string::npos);
  const auto alpha = stream.find("t.alpha");
  const auto zeta = stream.find("t.zeta");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);  // content-sorted
  EXPECT_NE(stream.find("\"spans\":2"), std::string::npos);
}

TEST(TraceExport, ChromeJsonIsValidAndCarriesSpans) {
  TraceRecorder rec;
  {
    Span s = rec.span("t.event \"quoted\"", SpanCat::kScanner);
    s.attr("proto", "udp53");
  }
  (void)rec.span("t.volatile", SpanCat::kOther, Stability::kVolatile);
  const std::string json = rec.chrome_json();

  const auto doc = json_parse(json);
  ASSERT_TRUE(doc.has_value()) << "chrome export is not valid JSON";
  ASSERT_TRUE(doc->is_object());
  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "sixdust-trace/1");
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->arr.size(), 2u);  // volatile spans ARE in the chrome view
  for (const JsonValue& ev : events->arr) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    ASSERT_NE(ev.find("args"), nullptr);
    EXPECT_EQ(ev.find("ph")->str, "X");
    EXPECT_TRUE(ev.find("pid")->is_number());
    EXPECT_TRUE(ev.find("tid")->is_number());
  }
  const JsonValue& first = events->arr[0];
  EXPECT_EQ(first.find("name")->str, "t.event \"quoted\"");
  EXPECT_EQ(first.find("cat")->str, "scanner");
  EXPECT_EQ(first.find("args")->find("proto")->str, "udp53");
}

TEST(TracePhaseTimer, NestedPhasesLinkParentAndRecordHistogram) {
  MetricsRegistry reg;
  TraceRecorder rec;
  reg.set_tracer(&rec);
  {
    PhaseTimer outer(&reg, "t.phase_outer");
    PhaseTimer inner(&reg, "t.phase_inner");
  }
  reg.set_tracer(nullptr);

  const auto spans = rec.collect();
  const SpanRecord* outer = find_span(spans, "t.phase_outer");
  const SpanRecord* inner = find_span(spans, "t.phase_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->cat, SpanCat::kPhase);
  EXPECT_EQ(inner->parent, outer->id);

  const auto snap = reg.snapshot();
  const MetricSample* hist = snap.find("t.phase_inner.duration_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::kHistogram);
  EXPECT_EQ(hist->stability, Stability::kVolatile);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(snap.counter_value("t.phase_outer.calls"), 1u);
}

TEST(ObsLog, LevelFilterAndJsonLines) {
  Logger& log = Logger::global();
  log.set_capture(true);
  log.set_level(LogLevel::kInfo);
  log.debug("test", "below threshold");
  log.info("test", "message with \"quotes\"\nand newline");
  const std::string out = log.take_captured();
  log.set_capture(false);
  log.set_level(LogLevel::kWarn);

  EXPECT_EQ(out.find("below threshold"), std::string::npos);
  ASSERT_NE(out.find("\"level\":\"info\""), std::string::npos);
  // Exactly one line, and it parses as JSON.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  const auto doc = json_parse(out.substr(0, out.size() - 1));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("component")->str, "test");
  EXPECT_EQ(doc->find("msg")->str, "message with \"quotes\"\nand newline");
}

TEST(ObsLog, StampsEnclosingSpanContext) {
  TraceRecorder rec;
  Logger& log = Logger::global();
  log.set_capture(true);
  log.set_level(LogLevel::kInfo);
  {
    Span s = rec.span("t.logging_phase", SpanCat::kService);
    log.info("test", "inside");
  }
  log.info("test", "outside");
  const std::string out = log.take_captured();
  log.set_capture(false);
  log.set_level(LogLevel::kWarn);

  std::istringstream lines(out);
  std::string inside, outside;
  std::getline(lines, inside);
  std::getline(lines, outside);
  EXPECT_NE(inside.find("\"span_name\":\"t.logging_phase\""),
            std::string::npos);
  EXPECT_EQ(outside.find("span_name"), std::string::npos);
}

TEST(ObsLog, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").has_value());
}

// --- service-level determinism ---------------------------------------------

std::string stable_trace_after_run(const World& world, unsigned threads,
                                   int scans) {
  TraceRecorder rec;
  HitlistService::Config cfg;
  cfg.threads = threads;
  cfg.tracer = &rec;
  HitlistService service(cfg);
  service.run(world, scans);
  return rec.stable_stream();
}

TEST(TraceThreadInvariance, StableStreamByteIdenticalAcrossThreadCounts) {
  const auto world = build_test_world(7);
  const std::string one = stable_trace_after_run(*world, 1, 5);
  const std::string two = stable_trace_after_run(*world, 2, 5);
  const std::string seven = stable_trace_after_run(*world, 7, 5);
  EXPECT_NE(one.find("service.step"), std::string::npos);
  EXPECT_NE(one.find("scanner.scan"), std::string::npos);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, seven);
}

TEST(TraceThreadInvariance, TracedRunKeepsStableMetricsUnchanged) {
  // Attaching a tracer must not perturb the stable metrics surface.
  const auto world = build_test_world(7);
  const auto run = [&](bool traced) {
    TraceRecorder rec;
    HitlistService::Config cfg;
    if (traced) cfg.tracer = &rec;
    HitlistService service(cfg);
    service.run(*world, 3);
    return service.metrics().snapshot().to_json(/*include_volatile=*/false);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TraceServicePhases, StepEmitsVolatileEligibleAliasFilterBookkeeping) {
  // The three untimed service phases carry volatile spans only, so the
  // stable stream and the stable metrics stay as they were (the goldens
  // below pin both on the 12-scan world).
  const auto world = build_test_world(7);
  constexpr int kScans = 3;
  TraceRecorder rec;
  HitlistService::Config cfg;
  cfg.tracer = &rec;
  HitlistService service(cfg);
  service.run(*world, kScans);
  const auto spans = rec.collect();
  // Each nests in its step's service.phase.step span.
  std::vector<std::uint64_t> steps;
  for (const auto& s : spans)
    if (s.name == "service.phase.step") steps.push_back(s.id);
  ASSERT_EQ(steps.size(), static_cast<std::size_t>(kScans));
  for (const std::string_view name :
       {"service.phase.eligible", "service.phase.alias_filter",
        "service.phase.bookkeeping"}) {
    SCOPED_TRACE(name);
    int seen = 0;
    for (const auto& s : spans) {
      if (s.name != name) continue;
      ++seen;
      EXPECT_EQ(s.stability, Stability::kVolatile);
      EXPECT_EQ(s.cat, SpanCat::kService);
      EXPECT_NE(std::find(steps.begin(), steps.end(), s.parent), steps.end());
    }
    EXPECT_EQ(seen, kScans);
    EXPECT_EQ(rec.stable_stream().find(name), std::string::npos);
    EXPECT_EQ(service.metrics().snapshot().to_json(/*include_volatile=*/true)
                  .find(name),
              std::string::npos);
  }
}

#ifndef SIXDUST_SOURCE_DIR
#error "SIXDUST_SOURCE_DIR must be defined for the golden-trace test"
#endif

TEST(TraceGolden, TwelveScanServiceMatchesCheckedInStream) {
  const std::string golden_path =
      std::string(SIXDUST_SOURCE_DIR) + "/tests/golden/trace_12scan.jsonl";
  const auto world = build_test_world(42);
  const std::string stream = stable_trace_after_run(*world, 1, 12);

  if (std::getenv("SIXDUST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << stream;
    GTEST_SKIP() << "golden file regenerated: " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " — regenerate with tools/update-golden-metrics.sh";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(stream, buf.str())
      << "stable span stream drifted from the golden trace; if the change "
         "is intentional run tools/update-golden-metrics.sh";
}

}  // namespace
}  // namespace sixdust
