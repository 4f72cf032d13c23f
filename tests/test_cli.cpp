// Tests for the CLI argument parser shared by the sixdust-* tools, and
// spawn-level checks of the tools' fail-fast paths (unknown options, bad
// --listen, unwritable output files, unreachable server) and of scan runs
// with and without a blocklist, with unreadable lists, and on generated
// targets.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "cli.hpp"

namespace sixdust {
namespace {

cli::Args parse(std::vector<std::string> argv) {
  std::vector<char*> raw;
  static std::vector<std::string> storage;
  storage = std::move(argv);
  raw.push_back(const_cast<char*>("tool"));
  for (auto& s : storage) raw.push_back(s.data());
  return cli::Args(static_cast<int>(raw.size()), raw.data());
}

TEST(Cli, SpaceAndEqualsForms) {
  const auto args = parse({"--scans", "12", "--world-scale=0.5"});
  EXPECT_EQ(args.get_u64("scans", 0), 12u);
  EXPECT_DOUBLE_EQ(args.get_double("world-scale", 0), 0.5);
}

TEST(Cli, BareFlagsAndDefaults) {
  const auto args = parse({"--verify", "--out", "x.txt"});
  EXPECT_TRUE(args.has("verify"));
  EXPECT_EQ(args.get("verify"), "true");
  EXPECT_EQ(args.get("out"), "x.txt");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_u64("missing", 7), 7u);
}

TEST(Cli, FlagFollowedByFlagIsBare) {
  const auto args = parse({"--verify", "--scan", "--out", "f"});
  EXPECT_EQ(args.get("verify"), "true");
  EXPECT_EQ(args.get("scan"), "true");
  EXPECT_EQ(args.get("out"), "f");
}

TEST(Cli, PositionalArguments) {
  const auto args = parse({"one", "--k", "v", "two"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, LaterValueWins) {
  const auto args = parse({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(args.get_u64("seed", 0), 2u);
}

constexpr const char* kUsage = R"(usage: tool [options]
  --scans N          number of scans
  --world-scale X    world scale
  --verify           fingerprint
  --help
)";

TEST(Cli, DocumentedOptionsPassTheUsageCheck) {
  const auto args = parse({"--scans", "12", "--world-scale=0.5", "--verify"});
  args.usage_on_help(kUsage);  // returns: every option is listed
  EXPECT_EQ(args.get_u64("scans", 0), 12u);
}

TEST(Cli, UndocumentedOptionExitsTwo) {
  EXPECT_EXIT(parse({"--scans", "1", "--pipeline"}).usage_on_help(kUsage),
              ::testing::ExitedWithCode(2), "unknown option --pipeline");
}

TEST(Cli, OptionMustMatchAWholeUsageToken) {
  // "--scan" is a prefix of the documented "--scans", not an option.
  EXPECT_EXIT(parse({"--scan", "3"}).usage_on_help(kUsage),
              ::testing::ExitedWithCode(2), "unknown option --scan");
}

// --- tool fail-fast paths (spawned binaries) ---------------------------------

#ifndef SIXDUST_BIN_DIR
#error "SIXDUST_BIN_DIR must be defined for the tool spawn tests"
#endif

/// Run a tool with `args`, returning its exit code (-1 when it did not
/// exit normally). Standard output goes to `stdout_path` (discarded by
/// default); standard error is discarded.
int run_tool(const std::string& name, const std::string& args,
             const std::string& stdout_path = "/dev/null") {
  const std::string bin = std::string(SIXDUST_BIN_DIR) + "/" + name;
  if (::access(bin.c_str(), X_OK) != 0) return -2;  // binary not built
  const int status = std::system(
      (bin + " " + args + " >" + stdout_path + " 2>/dev/null").c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(CliHitlistTool, RejectsRemovedPipelineFlags) {
  const int pipeline = run_tool("sixdust-hitlist", "--pipeline --scans 1");
  if (pipeline == -2) GTEST_SKIP() << "sixdust-hitlist not built";
  EXPECT_EQ(pipeline, 2);
  EXPECT_EQ(run_tool("sixdust-hitlist", "--topo-out x"), 2);
}

TEST(CliHitlistTool, AcceptsDocumentedFlags) {
  // A bad --log-level dies with 1 before the world build; reaching that
  // check means --tail-ases passed the usage check (which exits 2).
  const int code =
      run_tool("sixdust-hitlist", "--tail-ases 5 --log-level bogus");
  if (code == -2) GTEST_SKIP() << "sixdust-hitlist not built";
  EXPECT_EQ(code, 1);
}

TEST(CliServeTool, DiesNonzeroOnBadListenSpec) {
  const int code = run_tool("sixdust-serve", "--listen not-a-spec --epochs 1");
  if (code == -2) GTEST_SKIP() << "sixdust-serve not built";
  EXPECT_GT(code, 0);
}

TEST(CliServeTool, DiesNonzeroOnUnwritableMetricsOut) {
  const int code = run_tool(
      "sixdust-serve",
      "--listen 127.0.0.1:0 --epochs 1 "
      "--metrics-out /nonexistent-sixdust-dir/metrics.json");
  if (code == -2) GTEST_SKIP() << "sixdust-serve not built";
  EXPECT_GT(code, 0);
}

TEST(CliServeTool, DiesNonzeroOnUnwritableSnapshotLog) {
  const int code = run_tool(
      "sixdust-serve",
      "--listen 127.0.0.1:0 --epochs 1 "
      "--snapshot-log /nonexistent-sixdust-dir/epochs.json");
  if (code == -2) GTEST_SKIP() << "sixdust-serve not built";
  EXPECT_GT(code, 0);
}

TEST(CliLoadgenTool, ExitsNonzeroWhenServerUnreachable) {
  const int code = run_tool(
      "sixdust-loadgen",
      "--connect unix:/nonexistent-sixdust.sock --requests 1 --concurrency 1");
  if (code == -2) GTEST_SKIP() << "sixdust-loadgen not built";
  EXPECT_EQ(code, 3);  // exit 3 = could not connect at all
}

TEST(CliLoadgenTool, ExitsNonzeroOnBadConnectSpec) {
  const int code = run_tool("sixdust-loadgen", "--connect nonsense");
  if (code == -2) GTEST_SKIP() << "sixdust-loadgen not built";
  EXPECT_GT(code, 0);
}

TEST(CliLoadgenTool, DiesNonzeroOnUnwritableJsonOut) {
  // The probe runs before any load is generated, so this dies fast even
  // though the endpoint is also unreachable.
  const int code = run_tool(
      "sixdust-loadgen",
      "--connect unix:/nonexistent-sixdust.sock "
      "--json-out /nonexistent-sixdust-dir/loadgen.json");
  if (code == -2) GTEST_SKIP() << "sixdust-loadgen not built";
  EXPECT_GT(code, 0);
  EXPECT_NE(code, 3);  // not the unreachable-server code: it never connected
}

TEST(CliServeTool, DiesNonzeroOnBadHttpSpec) {
  const int code = run_tool("sixdust-serve",
                            "--listen 127.0.0.1:0 --http not-a-spec");
  if (code == -2) GTEST_SKIP() << "sixdust-serve not built";
  EXPECT_GT(code, 0);
}

TEST(CliServeTool, DiesNonzeroOnUnwritableTimeseriesOut) {
  const int code = run_tool(
      "sixdust-serve",
      "--listen 127.0.0.1:0 --epochs 1 "
      "--timeseries-out /nonexistent-sixdust-dir/ts.jsonl");
  if (code == -2) GTEST_SKIP() << "sixdust-serve not built";
  EXPECT_GT(code, 0);
}

TEST(CliTopTool, ExitsThreeWhenEndpointUnreachable) {
  const int code = run_tool(
      "sixdust-top", "--connect unix:/nonexistent-sixdust.sock --iterations 1");
  if (code == -2) GTEST_SKIP() << "sixdust-top not built";
  EXPECT_EQ(code, 3);  // documented: 3 = unreachable on the first poll
}

TEST(CliTopTool, UnknownOptionIsAUsageErrorNotUnreachable) {
  const int code = run_tool(
      "sixdust-top", "--connect unix:/nonexistent-sixdust.sock --bogus 1");
  if (code == -2) GTEST_SKIP() << "sixdust-top not built";
  EXPECT_EQ(code, 2);  // usage errors exit 2, before any poll
}

TEST(CliLoadgenTool, UnknownOptionIsAUsageErrorNotUnreachable) {
  const int code = run_tool(
      "sixdust-loadgen", "--connect unix:/nonexistent-sixdust.sock --bogus 1");
  if (code == -2) GTEST_SKIP() << "sixdust-loadgen not built";
  EXPECT_EQ(code, 2);  // usage errors exit 2, before any connect
}

TEST(CliTopTool, ExitsNonzeroOnBadConnectSpec) {
  const int code = run_tool("sixdust-top", "--connect nonsense");
  if (code == -2) GTEST_SKIP() << "sixdust-top not built";
  EXPECT_GT(code, 0);
}

TEST(CliScanTool, ScansWithAndWithoutBlocklist) {
  // Without --blocklist the scanner queries an empty prefix set.
  const int bare = run_tool("sixdust-scan", "--proto icmp");
  if (bare == -2) GTEST_SKIP() << "sixdust-scan not built";
  EXPECT_EQ(bare, 0);
  const std::string path = ::testing::TempDir() + "/sixdust_scan_block.txt";
  {
    std::ofstream f(path);
    f << "2001:db8::/32\n";
  }
  EXPECT_EQ(run_tool("sixdust-scan", "--proto icmp --blocklist " + path), 0);
  std::remove(path.c_str());
}

TEST(CliScanTool, DirectoryTargetsOrBlocklistFail) {
  const std::string dir = ::testing::TempDir();
  const int targets = run_tool("sixdust-scan", "--proto icmp --targets " + dir);
  if (targets == -2) GTEST_SKIP() << "sixdust-scan not built";
  EXPECT_GT(targets, 0);
  EXPECT_GT(run_tool("sixdust-scan", "--proto icmp --blocklist " + dir), 0);
}

/// The number after `key` in `text`, or -1 when `key` does not occur.
long count_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::strtol(text.c_str() + at + key.size(), nullptr, 10);
}

TEST(CliScanTool, GeneratedTargetsHoldNoDuplicates) {
  // With one protocol, its responsive count and the any-protocol count
  // agree only when no target address is scanned twice.
  const std::string out = ::testing::TempDir() + "/sixdust_scan_stdout.txt";
  const int code = run_tool("sixdust-scan", "--proto icmp", out);
  if (code == -2) GTEST_SKIP() << "sixdust-scan not built";
  ASSERT_EQ(code, 0);
  std::ifstream f(out);
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  std::remove(out.c_str());
  const long icmp = count_after(text, "responsive=");
  ASSERT_GT(icmp, 0) << text;
  EXPECT_EQ(count_after(text, "responsive to >=1 protocol: "), icmp) << text;
}

}  // namespace
}  // namespace sixdust
