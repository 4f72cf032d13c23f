// sixdust-perfbench: the repository's benchmark.
//
//   sixdust-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--size full|tiny] [--expected FILE]
//
// Runs one workload (timeline-dense, wide-early, serve-epochs) through the
// library's public API, checks its outputs, and prints as the last line of
// stdout one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the workloads and metrics.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json_mini.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "sixdust-perfbench: %s\n"
               "usage: sixdust-perfbench --workload "
               "timeline-dense|wide-early|serve-epochs --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--expected FILE]\n",
               why);
  return 2;
}

/// Digests recorded for the default seed (perfbench/expected.json:
/// {"seed":N,"full":{workload:{...}},"tiny":{...}}).
std::optional<Digests> load_expected(const std::string& path,
                                     const RunOptions& o, bool* unreadable) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const auto doc = sixdust::json_parse(ss.str());
  *unreadable = !f || !doc || !doc->is_object();
  if (*unreadable) return std::nullopt;
  const auto* seed = doc->find("seed");
  if (seed == nullptr || seed->u64() != o.seed) return std::nullopt;
  const auto* size = doc->find(o.tiny ? "tiny" : "full");
  const auto* w = size == nullptr ? nullptr : size->find(o.workload);
  if (w == nullptr) return std::nullopt;
  auto str = [&](const char* k) {
    const auto* v = w->find(k);
    return v != nullptr && v->is_string() ? v->str : std::string("missing");
  };
  return Digests{str("stable_metrics"), str("history"), str("epochs")};
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

std::string json_metrics(const Report& r) {
  std::string out = "{";
  char buf[64];
  for (const auto& m : r.metrics()) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--client")
    return client_main(argc, argv);

  RunOptions o;
  int trace = -1;
  bool have_seconds = false;
  std::string expected_path = "perfbench/expected.json";
  std::string commit = "none", source_digest = "none";
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        o.workload = v;
      } else if (k == "--seed") {
        o.seed = std::stoull(v);
      } else if (k == "--seconds") {
        o.seconds = std::stod(v);
        have_seconds = true;
      } else if (k == "--trace") {
        trace = std::stoi(v);
      } else if (k == "--size") {
        if (v != "tiny" && v != "full") return usage("--size is full or tiny");
        o.tiny = v == "tiny";
      } else if (k == "--expected") {
        expected_path = v;
      } else if (k == "--commit") {
        commit = v;
      } else if (k == "--source-digest") {
        source_digest = v;
      } else {
        return usage(("unknown option " + k).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  if (!known_workload(o.workload)) return usage("unknown workload");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!have_seconds || o.seconds < 1) return usage("--seconds must be >= 1");
  o.trace = trace == 1;
  o.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  o.self_exe = self_exe();

  bool unreadable = false;
  o.expected = load_expected(expected_path, o, &unreadable);
  if (unreadable) return usage(("cannot read " + expected_path).c_str());

  o.run_dir = ".perfbench-run/" + std::to_string(getpid());
  std::filesystem::create_directories(o.run_dir);

  std::printf(
      "env {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"source_digest\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"size\": \"%s\", "
      "\"service_threads\": %u, \"serve_readers\": %u, "
      "\"client_connections\": %u, \"digests_checked\": %s}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, commit.c_str(), source_digest.c_str(),
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      trace, o.tiny ? "tiny" : "full", o.threads, o.readers, o.conns,
      o.expected ? "true" : "false");
  std::fflush(stdout);

  const Outcome out = run_workload(o);
  std::filesystem::remove_all(o.run_dir);
  std::error_code ec;
  std::filesystem::remove(".perfbench-run", ec);  // only if now empty

  std::printf("digests %s {\"stable_metrics\": \"%s\", \"history\": \"%s\", "
              "\"epochs\": \"%s\"}\n",
              o.workload.c_str(), out.digests.stable_metrics.c_str(),
              out.digests.history.c_str(), out.digests.epochs.c_str());
  for (const auto& line : out.notes) std::printf("%s\n", line.c_str());
  const Report& shown = o.trace ? out.layers : out.e2e;
  for (const auto& m : shown.metrics())
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const auto attempted = out.checks.attempted();
  const auto failed = out.checks.failed();
  std::printf("failed_frac %.6g (%llu of %llu operations)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      failed == 0 && attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json_metrics(shown).c_str());
  return 0;
}
