#pragma once

// The three workloads. Each one sets the system up, runs scan epochs,
// publishes the results and serves queries; they differ in world size,
// timeline length, and whether queries arrive while epochs are published.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20;
  bool trace = false;  // per-layer run: spans and benchmark timers on
  bool tiny = false;   // self-test size
  unsigned threads = 4;  // HitlistService worker threads
  unsigned readers = 2;  // serve poll lanes
  unsigned conns = 2;    // client connections
  std::string run_dir;   // scratch directory inside the checkout
  std::string self_exe;  // this binary, re-run as the load generator
  std::optional<Digests> expected;
};

struct Outcome {
  Report e2e;     // printed with --trace 0
  Report layers;  // printed with --trace 1
  Checks checks;
  Digests digests;
  std::vector<std::string> notes;  // human-readable lines (attribution)
};

[[nodiscard]] bool known_workload(const std::string& name);
[[nodiscard]] Outcome run_workload(const RunOptions& o);

}  // namespace perfbench
