#pragma once

// The query side of the benchmark: request keys, the load-generator child
// process, and the check of every reply against the snapshot of the epoch
// that stamped it.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

using SnapshotPtr = std::shared_ptr<const sixdust::serve::EpochSnapshot>;
using Snapshots = std::map<int, SnapshotPtr>;

/// Request bodies in the order the client replays them.
struct KeySet {
  std::vector<sixdust::serve::Op> ops;
  std::vector<sixdust::Ipv6> addrs;  // zero for epoch-info
  std::vector<std::vector<std::uint8_t>> bodies;
};

/// `n` requests drawn from `seed`: 70% lookup, 15% origin, 10% alias and
/// 5% epoch-info (the loadgen's mix). Half of the addresses are responsive
/// in `snap` (hits), half are random addresses inside announced prefixes.
[[nodiscard]] KeySet make_keys(const sixdust::serve::EpochSnapshot& snap,
                               const sixdust::Rib& rib, std::uint64_t seed,
                               std::size_t n);

/// Load shape: `segments` times an open loop at `rate_qps` for `open_s`
/// (split evenly over `conns` connections, each request timed from when it
/// was due), then a closed loop for `closed_s` with every connection
/// sending back to back. Segment k starts at k * (open_s + closed_s).
struct LoadPlan {
  int segments = 1;
  double open_s = 1;    // per segment
  double closed_s = 1;  // per segment
  double rate_qps = 4000;
  unsigned conns = 2;

  [[nodiscard]] double period_s() const { return open_s + closed_s; }
};

/// The load generator, run as a child process of this binary.
class ClientProcess {
 public:
  ClientProcess() = default;
  ClientProcess(const ClientProcess&) = delete;
  ClientProcess& operator=(const ClientProcess&) = delete;
  /// Kills and reaps a client that is still running.
  ~ClientProcess();

  /// Spawn `self_exe --client ...` against `endpoint` (serve ListenSpec
  /// syntax), handing it `keys` and a reply log as in-memory files.
  [[nodiscard]] bool start(const std::string& self_exe,
                           const std::string& endpoint, const KeySet& keys,
                           const LoadPlan& plan);
  /// Non-blocking: true once the child has exited (exit status kept).
  [[nodiscard]] bool done();
  /// Block until the child exits, killing it after `timeout_s`. True when
  /// it exited normally with status 0.
  [[nodiscard]] bool wait(double timeout_s);
  [[nodiscard]] const std::string& log_path() const { return log_path_; }

 private:
  pid_t pid_ = -1;
  int status_ = -1;
  int keys_fd_ = -1;
  int log_fd_ = -1;
  std::string log_path_;
};

/// Entry point of the `--client` mode; returns the process exit code.
int client_main(int argc, char** argv);

/// What the replies measured, plus how many were checked.
struct QueryResult {
  // Open loop, timed from the due time, per time slice of the loop: p50
  // and p99 are lower quartiles over slices, late_p99 is their median.
  double p50_us = 0;
  double p99_us = 0;
  double late_p99_us = 0;  // send time minus due time
  double qps = 0;          // closed loop, upper decile over windows
  double found_frac = 0;   // lookups answered kOk
  std::uint64_t open_samples = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
};

/// Read the client's log and compare every reply with the same request
/// answered in-process on the snapshot of the reply's stamped epoch. Lost
/// replies, mismatches and epochs going backwards on a connection count as
/// failed queries.
/// Each segment of `plan` gives `open_slices` equal slices of its open
/// loop (by due time) and `closed_windows` equal windows of its closed
/// loop (by completion time).
[[nodiscard]] QueryResult score_replies(const std::string& log_path,
                                        const KeySet& keys,
                                        const Snapshots& epochs,
                                        const LoadPlan& plan, int open_slices,
                                        int closed_windows);

/// Per-layer serve numbers from in-process calls on `snap`: engine time
/// per op, origin (LPM) lookup time, and transport = p50 minus the mean
/// engine time of the request mix.
void engine_layer_metrics(const KeySet& keys, const SnapshotPtr& snap,
                          double query_p50_us, Report& layers);

}  // namespace perfbench
