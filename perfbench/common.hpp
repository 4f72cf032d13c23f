#pragma once

// Shared pieces of the benchmark binary: clocks, order statistics, the
// metric report and the correctness tally.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}
[[nodiscard]] inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// User + system CPU time of this process, in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median / nearest-rank quantile of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);
[[nodiscard]] std::string hex64(std::uint64_t v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness tally: every check and every query is one attempted
/// operation; a failed check prints why on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Fold in operations checked elsewhere (queries: sent and wrong/lost).
  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Digests recorded with the benchmark for the default seed.
struct Digests {
  std::string stable_metrics;  // stable half of the metrics snapshot
  std::string history;         // every History::Entry of the run
  std::string epochs;          // the sixdust-serve-epochs/1 record stream
};

}  // namespace perfbench
