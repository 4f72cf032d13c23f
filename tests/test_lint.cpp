// sixdust-lint test suite (ctest -L lint): lexer mechanics, the
// annotation grammar, one fixture per contract rule, the stable-name
// manifest extractor + coverage check, the JSON export, and the
// self-run gate asserting the repo itself lints clean.
//
// Fixtures are fed to run_lint() as in-memory SourceFiles with fake
// repo-relative paths, so rule scoping (src/ vs tests/, the thread-pool
// allowlist) is exercised without touching the filesystem.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/annotations.hpp"
#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/rules.hpp"
#include "obs/json_mini.hpp"

namespace sixdust::lint {
namespace {

LintResult lint_one(std::string path, std::string text) {
  return run_lint({{std::move(path), std::move(text)}});
}

/// Count findings for `rule`, split by allow state.
std::size_t count_rule(const LintResult& r, std::string_view rule,
                       bool allowed) {
  std::size_t n = 0;
  for (const Finding& f : r.findings)
    if (f.rule == rule && f.allowed == allowed) ++n;
  return n;
}

bool has_at(const LintResult& r, std::string_view rule, std::size_t line) {
  for (const Finding& f : r.findings)
    if (f.rule == rule && f.line == line && !f.allowed) return true;
  return false;
}

// ---- lexer -----------------------------------------------------------

TEST(LintLexer, ClassifiesTokensAndCompoundPuncts) {
  const TokenStream ts = lex("a->b::c = 0x1f;");
  ASSERT_EQ(ts.toks.size(), 8u);
  EXPECT_EQ(ts.toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(ts.toks[1].text, "->");
  EXPECT_EQ(ts.toks[3].text, "::");
  EXPECT_EQ(ts.toks[6].kind, TokKind::kNumber);
  EXPECT_EQ(ts.toks[6].text, "0x1f");
}

TEST(LintLexer, CommentsLeaveTheTokenStream) {
  const TokenStream ts = lex("int x; // std::thread here\n"
                             "/* and rand() in\n a block */ int y;\n");
  for (const Tok& t : ts.toks) {
    EXPECT_NE(t.text, "thread");
    EXPECT_NE(t.text, "rand");
  }
  ASSERT_EQ(ts.comments.size(), 2u);
  EXPECT_EQ(ts.comments[0].line, 1u);
  EXPECT_FALSE(ts.comments[0].own_line);  // code precedes it
  EXPECT_EQ(ts.comments[1].line, 2u);
  EXPECT_TRUE(ts.comments[1].own_line);
}

TEST(LintLexer, StringAndCharContentsAreNotCode) {
  const TokenStream ts =
      lex("auto s = \"std::thread t; t.detach();\"; char c = ':';");
  for (const Tok& t : ts.toks)
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "detach");
    }
  ASSERT_GE(ts.toks.size(), 4u);
  EXPECT_EQ(ts.toks[3].kind, TokKind::kString);
}

TEST(LintLexer, RawStringsEndAtTheirDelimiter) {
  const TokenStream ts = lex("auto s = R\"x(a \" )\" b)x\"; int z;");
  bool saw_string = false;
  for (const Tok& t : ts.toks) {
    if (t.kind == TokKind::kString) {
      saw_string = true;
      EXPECT_EQ(t.text, "a \" )\" b");
    }
  }
  EXPECT_TRUE(saw_string);
  EXPECT_EQ(ts.toks.back().text, ";");
}

TEST(LintLexer, PreprocessorLinesAreConsumedWhole) {
  const TokenStream ts = lex("#include <unordered_map>\n"
                             "#define M(x) \\\n  unordered_set<x>\n"
                             "int after;\n");
  for (const Tok& t : ts.toks) {
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "unordered_set");
  }
  ASSERT_EQ(ts.toks.size(), 3u);
  EXPECT_EQ(ts.toks[0].text, "int");
  EXPECT_EQ(ts.toks[0].line, 4u);
}

// ---- annotation grammar ----------------------------------------------

constexpr const char* kThreadLine = "void f() { std::thread t([]{}); }\n";

TEST(LintAnnotations, TrailingAllowSuppressesItsOwnLine) {
  const LintResult r = lint_one(
      "src/a.cpp",
      "void f() { std::thread t([]{}); }  "
      "// sixdust-lint: allow(conc-raw-thread) \xe2\x80\x94 fixture\n");
  EXPECT_EQ(count_rule(r, "conc-raw-thread", false), 0u);
  EXPECT_EQ(count_rule(r, "conc-raw-thread", true), 1u);
  EXPECT_EQ(r.blocking(), 0u);
}

TEST(LintAnnotations, OwnLineAllowTargetsTheNextCodeLine) {
  const LintResult r = lint_one(
      "src/a.cpp",
      std::string("// sixdust-lint: allow(conc-raw-thread) -- fixture\n"
                  "// a second, unrelated comment line\n\n") +
          kThreadLine);
  EXPECT_EQ(count_rule(r, "conc-raw-thread", false), 0u);
  EXPECT_EQ(count_rule(r, "conc-raw-thread", true), 1u);
}

TEST(LintAnnotations, AllowFileCoversTheWholeFile) {
  const LintResult r = lint_one(
      "src/a.cpp",
      std::string("// sixdust-lint: allow-file(conc-raw-thread) - fixture\n") +
          kThreadLine + kThreadLine);
  EXPECT_EQ(count_rule(r, "conc-raw-thread", false), 0u);
  EXPECT_EQ(count_rule(r, "conc-raw-thread", true), 2u);
}

TEST(LintAnnotations, OneAllowMayNameSeveralRules) {
  const LintResult r = lint_one(
      "src/a.cpp",
      "std::thread t;  "
      "// sixdust-lint: allow(conc-raw-thread, det-wallclock) - fixture\n");
  EXPECT_EQ(r.blocking(), 0u);
  // Both rules parsed; only one fired, so the allow still counts as used.
  EXPECT_EQ(count_rule(r, "lint-unused-allow", false), 0u);
}

TEST(LintAnnotations, ReasonIsMandatory) {
  const LintResult r = lint_one(
      "src/a.cpp",
      std::string("// sixdust-lint: allow(conc-raw-thread)\n") + kThreadLine);
  EXPECT_GE(count_rule(r, "lint-annotation", false), 1u);
  // The malformed allow suppresses nothing.
  EXPECT_EQ(count_rule(r, "conc-raw-thread", false), 1u);
}

TEST(LintAnnotations, MalformedMarkerIsAnError) {
  const LintResult r =
      lint_one("src/a.cpp", "// sixdust-lint: allwo(x) - typo\nint x;\n");
  EXPECT_EQ(count_rule(r, "lint-annotation", false), 1u);
}

TEST(LintAnnotations, UnknownRuleIdIsAnError) {
  const LintResult r = lint_one(
      "src/a.cpp", "// sixdust-lint: allow(no-such-rule) - fixture\nint x;\n");
  EXPECT_EQ(count_rule(r, "lint-annotation", false), 1u);
}

TEST(LintAnnotations, UnusedAllowIsAWarning) {
  const LintResult r = lint_one(
      "src/a.cpp",
      "// sixdust-lint: allow(conc-raw-thread) - nothing here needs it\n"
      "int x;\n");
  EXPECT_EQ(count_rule(r, "lint-unused-allow", false), 1u);
  EXPECT_EQ(r.blocking(), 0u);  // warnings never block
}

TEST(LintAnnotations, ProseMentionsOfTheMarkerAreIgnored) {
  const LintResult r = lint_one(
      "src/a.cpp",
      "// annotations look like: sixdust-lint: allow(rule) - reason\n"
      "int x;\n");
  EXPECT_EQ(r.findings.size(), 0u);
}

// ---- determinism rules -----------------------------------------------

TEST(LintRules, DetWallclockBindsStablePathsOnly) {
  const std::string src = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(has_at(lint_one("src/a.cpp", src), "det-wallclock", 1));
  EXPECT_TRUE(has_at(lint_one("tools/a.cpp", src), "det-wallclock", 1));
  EXPECT_EQ(lint_one("tests/a.cpp", src).findings.size(), 0u);
}

TEST(LintRules, DetWallclockFlagsCallsButNotMembersOrPrefixes) {
  EXPECT_TRUE(
      has_at(lint_one("src/a.cpp", "auto t = time(nullptr);\n"),
             "det-wallclock", 1));
  // Member access and longer identifiers are different things.
  EXPECT_EQ(lint_one("src/a.cpp", "x.time(); timeout(3);\n").findings.size(),
            0u);
}

TEST(LintRules, DetUnorderedIterFlagsHashOrderLoops) {
  const LintResult r = lint_one(
      "src/a.cpp",
      "std::unordered_map<int, int> m;\n"
      "void f() { for (const auto& [k, v] : m) use(k, v); }\n");
  EXPECT_TRUE(has_at(r, "det-unordered-iter", 2));
}

TEST(LintRules, DetUnorderedIterIgnoresOtherObjectsFields) {
  // `e.m` is some other struct's field that merely shares the name of the
  // local unordered map; only bare (or this->) uses match.
  const LintResult r = lint_one(
      "src/a.cpp",
      "std::unordered_map<int, int> m;\n"
      "void f(const Entry& e) { for (const auto& x : e.m) use(x); }\n"
      "void g(C* c) { for (const auto& x : c->svc.m) use(x); }\n");
  EXPECT_EQ(count_rule(r, "det-unordered-iter", false), 0u);
}

TEST(LintRules, DetUnorderedIterSeesCompanionHeaderMembers) {
  const LintResult r = run_lint(
      {{"src/x/a.hpp", "struct S { std::unordered_set<int> live_; };\n"},
       {"src/x/a.cpp",
        "void S::f() { for (int v : live_) use(v); }\n"}});
  EXPECT_TRUE(has_at(r, "det-unordered-iter", 1));
}

TEST(LintRules, DetPointerIoFlagsFormatStringsAndPointerHash) {
  EXPECT_TRUE(has_at(
      lint_one("src/a.cpp", "std::printf(\"at %p\\n\", (void*)p);\n"),
      "det-pointer-io", 1));
  EXPECT_TRUE(has_at(
      lint_one("src/a.cpp", "std::hash<Node*> h; use(h(n));\n"),
      "det-pointer-io", 1));
  EXPECT_EQ(lint_one("src/a.cpp", "std::hash<std::string> h;\n")
                .findings.size(),
            0u);
}

// ---- observability rules ---------------------------------------------

TEST(LintRules, ObsStabilityArgMustBeExplicit) {
  EXPECT_TRUE(has_at(
      lint_one("src/a.cpp", "c_ = &reg.counter(\"apd.rounds\");\n"),
      "obs-stability-arg", 1));
  EXPECT_EQ(
      lint_one("src/a.cpp",
               "c_ = &reg.counter(\"apd.rounds\", Stability::kStable);\n")
          .findings.size(),
      0u);
}

TEST(LintRules, ObsVolatileNamespacesMustRegisterVolatile) {
  EXPECT_TRUE(has_at(
      lint_one("src/a.cpp",
               "reg.counter(\"serve.requests\", Stability::kStable);\n"),
      "obs-volatile-ns", 1));
  EXPECT_EQ(
      lint_one("src/a.cpp",
               "reg.counter(\"serve.requests\", Stability::kVolatile);\n")
          .findings.size(),
      0u);
}

TEST(LintRules, ObsVolatileNamespaceResolvesPrefixVariables) {
  // The name is built through a local variable with a literal prefix; the
  // extractor still sees the serve.* namespace behind it.
  const LintResult r = lint_one(
      "src/a.cpp",
      "const std::string name = \"serve.\" + stage;\n"
      "reg.counter(name, Stability::kStable);\n");
  EXPECT_TRUE(has_at(r, "obs-volatile-ns", 2));
}

// ---- concurrency rules -----------------------------------------------

TEST(LintRules, ConcRawThreadHonorsThePoolAllowlist) {
  EXPECT_TRUE(
      has_at(lint_one("src/a.cpp", kThreadLine), "conc-raw-thread", 1));
  EXPECT_EQ(lint_one("src/core/thread_pool.cpp", kThreadLine)
                .findings.size(),
            0u);
  // Queries do not spawn.
  EXPECT_EQ(
      lint_one("src/a.cpp",
               "unsigned n = std::thread::hardware_concurrency();\n")
          .findings.size(),
      0u);
}

TEST(LintRules, ConcDetachAndBareLocksAreFlaggedEverywhere) {
  EXPECT_TRUE(
      has_at(lint_one("tests/zz.cpp", "t.detach();\n"), "conc-detach", 1));
  EXPECT_TRUE(has_at(lint_one("tests/zz.cpp", "m_.lock();\n"),
                     "conc-bare-lock", 1));
  EXPECT_TRUE(has_at(lint_one("src/a.cpp", "m_->unlock();\n"),
                     "conc-bare-lock", 1));
  EXPECT_EQ(
      lint_one("tests/zz.cpp", "std::lock_guard<std::mutex> g(m_);\n")
          .findings.size(),
      0u);
}

TEST(LintRules, ConcMemoryOrderBindsCoreServeObs) {
  const std::string bare = "bool s = stop_.load();\n";
  EXPECT_TRUE(
      has_at(lint_one("src/core/a.cpp", bare), "conc-memory-order", 1));
  EXPECT_TRUE(
      has_at(lint_one("src/serve/a.cpp", bare), "conc-memory-order", 1));
  EXPECT_EQ(lint_one("src/tga/a.cpp", bare).findings.size(), 0u);
  EXPECT_EQ(
      lint_one("src/core/a.cpp",
               "bool s = stop_.load(std::memory_order_relaxed);\n")
          .findings.size(),
      0u);
  // Multiline calls must still see the order on a continuation line.
  EXPECT_EQ(
      lint_one("src/core/a.cpp",
               "counter_.fetch_add(1,\n    std::memory_order_relaxed);\n")
          .findings.size(),
      0u);
}

TEST(LintRules, TopoMutableFlagsUnannotatedWorldState) {
  const std::string memo =
      "class Pool {\n"
      "  mutable std::unordered_map<int, Set> memo_;\n"
      "};\n";
  EXPECT_TRUE(has_at(lint_one("src/topo/pool.hpp", memo), "topo-mutable", 2));
  // Other layers keep their own conventions.
  EXPECT_EQ(lint_one("src/scanner/pool.hpp", memo).findings.size(), 0u);
}

TEST(LintRules, TopoMutablePassesAnnotatedSlotsAndMutableLambdas) {
  const LintResult r = lint_one(
      "src/topo/pool.hpp",
      "class Pool {\n"
      "  // sixdust-lint: allow(topo-mutable) — write-once table slots\n"
      "  mutable WriteOnceSlots<Column> columns_;\n"
      "  mutable std::mutex log_mutex_;  "
      "// sixdust-lint: allow(topo-mutable) — name-server log\n"
      "  void f() { auto g = [n = 0]() mutable { return ++n; }; }\n"
      "};\n");
  EXPECT_EQ(count_rule(r, "topo-mutable", false), 0u);
  EXPECT_EQ(count_rule(r, "topo-mutable", true), 2u);
}

// ---- manifest --------------------------------------------------------

TEST(LintManifest, RecoversNamesStabilityAndWrappers) {
  const TokenStream ts = lex(
      "a_ = &reg.counter(\"apd.rounds\", Stability::kStable);\n"
      "b_ = &reg.gauge(\"tga.seeds{algo=\" + name + \"}\",\n"
      "                Stability::kStable);\n"
      "c_ = &reg->histogram(std::string(\"x.lat\"), bounds);\n"
      "PhaseTimer t(metrics_, \"service.phase.apd\");\n");
  const std::vector<RegSite> sites = scan_registrations(ts);
  ASSERT_EQ(sites.size(), 4u);
  EXPECT_EQ(sites[0].kind, "phase");  // wrapper pass runs first
  EXPECT_EQ(sites[0].prefix, "service.phase.apd");
  EXPECT_FALSE(sites[0].exact);
  EXPECT_EQ(sites[1].prefix, "apd.rounds");
  EXPECT_TRUE(sites[1].exact);
  EXPECT_EQ(sites[1].stability, "stable");
  EXPECT_EQ(sites[2].prefix, "tga.seeds{algo=");
  EXPECT_FALSE(sites[2].exact);
  EXPECT_EQ(sites[3].prefix, "x.lat");
  EXPECT_EQ(sites[3].stability, "default");
}

TEST(LintManifest, CoverageAcceptsExactAndPrefixRowsAndReportsGaps) {
  const std::vector<ManifestRow> manifest = {
      {"apd.rounds", true, "counter", "stable", "src/a.cpp", 1},
      {"service.phase.", false, "phase", "stable", "src/b.cpp", 2},
  };
  const std::string golden =
      "{\"schema\": \"sixdust-metrics/1\", \"metrics\": [\n"
      "  {\"name\":\"apd.rounds\",\"kind\":\"counter\","
      "\"stability\":\"stable\",\"value\":1},\n"
      "  {\"name\":\"service.phase.scan.calls\",\"kind\":\"counter\","
      "\"stability\":\"stable\",\"value\":12},\n"
      "  {\"name\":\"orphan.metric\",\"kind\":\"counter\","
      "\"stability\":\"stable\",\"value\":3}\n"
      "]}\n";
  const std::vector<Finding> gaps =
      check_manifest_coverage(manifest, golden, "tests/golden/g.json");
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].rule, "obs-manifest");
  EXPECT_NE(gaps[0].message.find("orphan.metric"), std::string::npos);
}

// ---- JSON export -----------------------------------------------------

TEST(LintJson, ExportParsesAndCarriesTheSummary) {
  const LintResult r = lint_one(
      "src/a.cpp",
      "std::thread t;\n"
      "reg.counter(\"apd.x\", Stability::kStable);\n");
  const std::string json = result_to_json(r);
  const auto doc = json_parse(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "sixdust-lint/1");
  const JsonValue* summary = doc->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("errors")->u64(), 1u);
  const JsonValue* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->arr.size(), 1u);
  EXPECT_EQ(findings->arr[0].find("rule")->str, "conc-raw-thread");
  EXPECT_EQ(doc->find("manifest")->arr.size(), 1u);
  // Deterministic: same input, same bytes.
  EXPECT_EQ(json, result_to_json(run_lint(
                      {{"src/a.cpp",
                        "std::thread t;\n"
                        "reg.counter(\"apd.x\", Stability::kStable);\n"}})));
}

// ---- self-run gate ---------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return std::move(buf).str();
}

TEST(LintSelf, RepoLintsCleanUnderStrict) {
  std::vector<SourceFile> files;
  std::string error;
  ASSERT_TRUE(load_tree(SIXDUST_SOURCE_DIR, {"src", "tools", "tests"},
                        &files, &error))
      << error;
  ASSERT_GT(files.size(), 100u);
  const LintResult r = run_lint(files);
  for (const Finding& f : r.findings)
    if (!f.allowed)
      ADD_FAILURE() << f.file << ":" << f.line << ": " << f.message << " ["
                    << f.rule << "]";
  EXPECT_EQ(r.blocking(), 0u);
  EXPECT_EQ(r.count(Severity::kWarning, false), 0u);  // no stale allows
}

TEST(LintSelf, ManifestCoversTheGoldenStableMetrics) {
  std::vector<SourceFile> files;
  std::string error;
  ASSERT_TRUE(load_tree(SIXDUST_SOURCE_DIR, {"src", "tools"}, &files, &error))
      << error;
  const LintResult r = run_lint(files);
  const std::string golden = read_file(
      std::string(SIXDUST_SOURCE_DIR) + "/tests/golden/metrics_12scan.json");
  ASSERT_FALSE(golden.empty());
  const std::vector<Finding> gaps = check_manifest_coverage(
      r.manifest, golden, "tests/golden/metrics_12scan.json");
  for (const Finding& f : gaps) ADD_FAILURE() << f.message;
  EXPECT_TRUE(gaps.empty());
}

}  // namespace
}  // namespace sixdust::lint
