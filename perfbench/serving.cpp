#include "serving.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <thread>

#include "asdb/rib.hpp"
#include "netbase/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot_manager.hpp"

extern char** environ;

namespace perfbench {

using sixdust::Ipv6;
using sixdust::serve::Op;
using sixdust::serve::Status;

namespace {

/// One reply as the client logged it (written raw; both ends are this
/// binary). Times are ns since the client's common start instant.
struct LogRecord {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint32_t key = 0;
  std::uint32_t epoch = 0;
  std::uint16_t payload_len = 0;
  std::uint8_t phase = 0;  // 0 = open loop, 1 = closed loop
  std::uint8_t conn = 0;
  std::uint8_t ok = 0;     // 0 = transport failure, no reply
  std::uint8_t op = 0;
  std::uint8_t status = 0;
  std::uint8_t pad = 0;
};

bool write_keys(const std::string& path, const KeySet& keys) {
  std::ofstream f(path, std::ios::binary);
  const auto n = static_cast<std::uint32_t>(keys.bodies.size());
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  for (const auto& body : keys.bodies) {
    const auto len = static_cast<std::uint8_t>(body.size());
    f.write(reinterpret_cast<const char*>(&len), 1);
    f.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  }
  return f.good();
}

std::vector<std::vector<std::uint8_t>> read_keys(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::uint32_t n = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  std::vector<std::vector<std::uint8_t>> bodies;
  for (std::uint32_t i = 0; i < n && f; ++i) {
    std::uint8_t len = 0;
    f.read(reinterpret_cast<char*>(&len), 1);
    std::vector<std::uint8_t> body(len);
    f.read(reinterpret_cast<char*>(body.data()), len);
    bodies.push_back(std::move(body));
  }
  if (!f) bodies.clear();
  return bodies;
}

/// Sleep most of the way, then spin: a plain sleep overshoots by tens of
/// microseconds, which would show up as latency.
void wait_until(Clock::time_point t) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= t) return;
    if (t - now > std::chrono::microseconds(200))
      std::this_thread::sleep_for(t - now - std::chrono::microseconds(150));
  }
}

struct ClientArgs {
  std::string endpoint, keys, log;
  LoadPlan plan;
};

/// Instant the measured phases start, set once every connection is up.
struct StartLine {
  Clock::time_point* t0;
  void operator()() noexcept {
    *t0 = Clock::now() + std::chrono::milliseconds(2);
  }
};

void run_conn(const ClientArgs& a,
              const std::vector<std::vector<std::uint8_t>>& bodies,
              unsigned conn, std::barrier<StartLine>* start,
              const Clock::time_point* start_time, std::string* out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  sixdust::serve::Client client;
  const auto spec = sixdust::serve::parse_listen_spec(a.endpoint);
  bool up = spec && client.connect(*spec, 5000);
  // Warm up: the server hands a new connection to its lane asynchronously,
  // so the first replies can lag; none of that belongs to the measurement.
  for (int i = 0; up && i < 50; ++i)
    up = client.request(sixdust::serve::request_epoch_info()).has_value();
  start->arrive_and_wait();
  const Clock::time_point t0 = *start_time;
  auto rel_ns = [&](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count());
  };
  auto append = [&](const LogRecord& r, const std::vector<std::uint8_t>& p) {
    out->append(reinterpret_cast<const char*>(&r), sizeof r);
    out->append(reinterpret_cast<const char*>(p.data()), p.size());
  };

  if (!up) {
    LogRecord r;
    r.conn = static_cast<std::uint8_t>(conn);
    append(r, {});
    return;
  }
  const LoadPlan& plan = a.plan;
  std::size_t k = conn * (bodies.size() / plan.conns);
  auto send = [&](std::uint8_t phase, Clock::time_point due) {
    LogRecord r;
    r.phase = phase;
    r.conn = static_cast<std::uint8_t>(conn);
    r.key = static_cast<std::uint32_t>(k % bodies.size());
    r.due_ns = rel_ns(due);
    const auto sent = Clock::now();
    const auto resp = client.request(bodies[r.key]);
    const auto done = Clock::now();
    ++k;
    r.sent_ns = rel_ns(sent);
    r.done_ns = rel_ns(done);
    if (!resp) {
      append(r, {});
      return false;
    }
    r.ok = 1;
    r.op = static_cast<std::uint8_t>(resp->op);
    r.status = static_cast<std::uint8_t>(resp->status);
    r.epoch = resp->epoch;
    r.payload_len = static_cast<std::uint16_t>(resp->payload.size());
    append(r, resp->payload);
    return true;
  };

  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const double gap = plan.conns / plan.rate_qps;  // per connection
  for (int seg = 0; seg < plan.segments; ++seg) {
    const double begin = seg * plan.period_s();
    const auto open_end = at(begin + plan.open_s);
    for (std::uint64_t j = 0;; ++j) {
      const auto due = at(begin + gap * (static_cast<double>(j) +
                                         static_cast<double>(conn) /
                                             plan.conns));
      if (due >= open_end) break;
      wait_until(due);
      if (!send(0, due)) return;
    }
    const auto closed_end = at(begin + plan.period_s());
    wait_until(open_end);
    while (Clock::now() < closed_end)
      if (!send(1, Clock::now())) return;
  }
}

}  // namespace

KeySet make_keys(const sixdust::serve::EpochSnapshot& snap,
                 const sixdust::Rib& rib, std::uint64_t seed, std::size_t n) {
  sixdust::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e12e);
  const auto& responsive = snap.responsive();
  const auto& routes = rib.routes();
  KeySet keys;
  keys.ops.reserve(n);
  keys.addrs.reserve(n);
  keys.bodies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto roll = rng.below(100);
    const Op op = roll < 70   ? Op::kLookup
                  : roll < 85 ? Op::kOrigin
                  : roll < 95 ? Op::kAlias
                              : Op::kEpochInfo;
    Ipv6 addr{};
    if (op != Op::kEpochInfo) {
      const bool hit = rng.below(2) == 0;
      if (hit && !responsive.empty())
        addr = responsive[rng.below(responsive.size())].first;
      else if (!routes.empty())
        addr = routes[rng.below(routes.size())].prefix.random_address(
            rng.next());
    }
    keys.ops.push_back(op);
    keys.addrs.push_back(addr);
    switch (op) {
      case Op::kLookup:
        keys.bodies.push_back(sixdust::serve::request_lookup(addr));
        break;
      case Op::kOrigin:
        keys.bodies.push_back(sixdust::serve::request_origin(addr));
        break;
      case Op::kAlias:
        keys.bodies.push_back(sixdust::serve::request_alias(addr));
        break;
      default:
        keys.bodies.push_back(sixdust::serve::request_epoch_info());
    }
  }
  return keys;
}

ClientProcess::~ClientProcess() {
  if (pid_ > 0 && status_ < 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status_, 0);
  }
  for (const int fd : {keys_fd_, log_fd_})
    if (fd >= 0) close(fd);
}

bool ClientProcess::start(const std::string& self_exe,
                          const std::string& endpoint, const KeySet& keys,
                          const LoadPlan& plan) {
  // Keys and replies travel through anonymous memory files: megabytes of
  // reply log written to disk would leave writeback running under the
  // measurements that follow.
  keys_fd_ = memfd_create("perfbench-keys", 0);
  log_fd_ = memfd_create("perfbench-replies", 0);
  if (keys_fd_ < 0 || log_fd_ < 0) return false;
  log_path_ = "/proc/self/fd/" + std::to_string(log_fd_);
  if (!write_keys("/proc/self/fd/" + std::to_string(keys_fd_), keys))
    return false;
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return std::string(buf);
  };
  std::vector<std::string> args = {self_exe,      "--client",
                                   "--endpoint",  endpoint,
                                   "--keys",      "/proc/self/fd/3",
                                   "--log",       "/proc/self/fd/4",
                                   "--segments",  std::to_string(plan.segments),
                                   "--open-s",    num(plan.open_s),
                                   "--closed-s",  num(plan.closed_s),
                                   "--rate",      num(plan.rate_qps),
                                   "--conns",     std::to_string(plan.conns)};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, keys_fd_, 3);
  posix_spawn_file_actions_adddup2(&fa, log_fd_, 4);
  status_ = -1;
  const int rc = posix_spawn(&pid_, self_exe.c_str(), &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  return rc == 0;
}

bool ClientProcess::done() {
  if (pid_ <= 0 || status_ >= 0) return true;
  return waitpid(pid_, &status_, WNOHANG) == pid_;
}

bool ClientProcess::wait(double timeout_s) {
  const auto t0 = Clock::now();
  while (!done()) {
    if (seconds_since(t0) > timeout_s) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status_, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pid_ > 0 && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

int client_main(int argc, char** argv) {
  ClientArgs a;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--endpoint") a.endpoint = v;
    else if (k == "--keys") a.keys = v;
    else if (k == "--log") a.log = v;
    else if (k == "--segments") a.plan.segments = std::atoi(v);
    else if (k == "--open-s") a.plan.open_s = std::atof(v);
    else if (k == "--closed-s") a.plan.closed_s = std::atof(v);
    else if (k == "--rate") a.plan.rate_qps = std::atof(v);
    else if (k == "--conns") a.plan.conns = static_cast<unsigned>(std::atoi(v));
    else continue;
    ++i;
  }
  const auto bodies = read_keys(a.keys);
  const unsigned conns = a.plan.conns;
  if (bodies.empty() || conns == 0 || a.plan.rate_qps <= 0 ||
      a.plan.segments < 1) {
    std::fprintf(stderr, "perfbench client: bad arguments or key file\n");
    return 2;
  }
  std::vector<std::string> logs(conns);
  Clock::time_point t0;
  std::barrier start(static_cast<std::ptrdiff_t>(conns), StartLine{&t0});
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < conns; ++c)
      threads.emplace_back(run_conn, std::cref(a), std::cref(bodies), c,
                           &start, &t0, &logs[c]);
  }
  std::ofstream f(a.log, std::ios::binary);
  for (const auto& l : logs)
    f.write(l.data(), static_cast<std::streamsize>(l.size()));
  return f.good() ? 0 : 3;
}

QueryResult score_replies(const std::string& log_path, const KeySet& keys,
                          const Snapshots& epochs, const LoadPlan& plan,
                          int open_slices, int closed_windows) {
  struct Verifier {
    sixdust::serve::SnapshotManager snaps;
    sixdust::serve::QueryEngine engine{&snaps, nullptr};
  };
  std::map<int, std::unique_ptr<Verifier>> verifiers;
  for (const auto& [epoch, snap] : epochs) {
    auto v = std::make_unique<Verifier>();
    v->snaps.publish(snap);
    verifiers.emplace(epoch, std::move(v));
  }

  std::ifstream f(log_path, std::ios::binary);
  QueryResult out;
  struct Timed {
    std::uint64_t due_ns;
    double lat_us, late_us;
  };
  std::vector<Timed> open;
  std::map<unsigned, std::uint32_t> last_epoch;  // per connection
  std::vector<std::uint64_t> closed_done;  // completion times, closed loop
  std::uint64_t lookups = 0, found = 0;
  int reported = 0;
  auto fail = [&](const char* why, const LogRecord& r) {
    ++out.failed;
    if (reported++ < 5)
      std::fprintf(stderr, "CHECK FAILED: query %s (conn %u key %u epoch %u)\n",
                   why, r.conn, r.key, r.epoch);
  };
  LogRecord r;
  std::vector<std::uint8_t> payload;
  while (f.read(reinterpret_cast<char*>(&r), sizeof r)) {
    payload.resize(r.payload_len);
    f.read(reinterpret_cast<char*>(payload.data()), r.payload_len);
    ++out.sent;
    if (r.ok == 0 || r.key >= keys.bodies.size()) {
      fail("lost", r);
      continue;
    }
    auto it = verifiers.find(static_cast<int>(r.epoch));
    if (it == verifiers.end()) {
      fail("stamped with an unpublished epoch", r);
      continue;
    }
    const auto frame = it->second->engine.handle(keys.bodies[r.key]);
    const auto want = sixdust::serve::parse_response(
        std::span<const std::uint8_t>(frame).subspan(4));
    if (!want || static_cast<std::uint8_t>(want->op) != r.op ||
        static_cast<std::uint8_t>(want->status) != r.status ||
        want->epoch != r.epoch || want->payload != payload) {
      fail("reply differs from its epoch's snapshot", r);
      continue;
    }
    auto [le, fresh] = last_epoch.emplace(r.conn, r.epoch);
    if (!fresh) {
      if (r.epoch < le->second) fail("epoch went backwards", r);
      le->second = r.epoch;
    }
    if (keys.ops[r.key] == Op::kLookup) {
      ++lookups;
      if (r.status == static_cast<std::uint8_t>(Status::kOk)) ++found;
    }
    if (r.phase == 0) {
      open.push_back({r.due_ns, static_cast<double>(r.done_ns - r.due_ns) / 1e3,
                      static_cast<double>(r.sent_ns - r.due_ns) / 1e3});
    } else {
      closed_done.push_back(r.done_ns);
    }
  }
  // Time is cut per segment: its open loop into `open_slices` slices (by
  // due time), its closed loop into `closed_windows` windows (by completion
  // time). A virtual machine whose host steals its CPUs stalls every thread
  // for milliseconds at a time, in spells that can last seconds, and a
  // slice or window hit by such a spell measures the host. It only ever
  // makes latency higher and throughput lower, so the reported figures are
  // taken from the better part of the slices: the p50 and p99 are lower
  // quartiles over slices, the closed-loop rate the upper decile over
  // windows. A change to the program moves every slice, the best ones too,
  // and a tail the program causes (queueing, lock contention, an epoch step
  // competing for the CPUs) is in every slice that holds its cause.
  const double period_ns = plan.period_s() * 1e9;
  const double open_ns = plan.open_s * 1e9;
  const double slice_ns = open_ns / open_slices;
  const double window_ns = plan.closed_s * 1e9 / closed_windows;
  // Slice or window index of time `t` measured from the start of `part`
  // (0 = open, 1 = closed) of its segment, or -1 outside every one.
  auto index = [&](std::uint64_t t, int part, double width, int per_segment) {
    const auto seg = static_cast<long>(static_cast<double>(t) / period_ns);
    const double at = static_cast<double>(t) - static_cast<double>(seg) *
                                                   period_ns -
                      (part == 1 ? open_ns : 0.0);
    const auto i = static_cast<long>(at / width);
    if (seg >= plan.segments || at < 0 || i >= per_segment) return -1L;
    return seg * per_segment + i;
  };
  std::map<long, std::vector<const Timed*>> slices;
  for (const Timed& t : open) {
    const long i = index(t.due_ns, 0, slice_ns, open_slices);
    if (i >= 0) slices[i].push_back(&t);
  }
  std::vector<double> p50, p99, late99;
  for (const auto& [slice, rows] : slices) {
    std::vector<double> lat, late;
    for (const Timed* t : rows) {
      lat.push_back(t->lat_us);
      late.push_back(t->late_us);
    }
    p50.push_back(quantile(lat, 0.50));
    p99.push_back(quantile(lat, 0.99));
    late99.push_back(quantile(late, 0.99));
  }
  out.open_samples = open.size();
  out.p50_us = quantile(p50, 0.25);
  out.p99_us = quantile(p99, 0.25);
  out.late_p99_us = median(late99);
  std::vector<double> per_window(
      static_cast<std::size_t>(closed_windows * plan.segments), 0.0);
  for (const std::uint64_t t : closed_done) {
    const long i = index(t, 1, window_ns, closed_windows);
    if (i >= 0) per_window[static_cast<std::size_t>(i)] += 1e9 / window_ns;
  }
  out.qps = quantile(per_window, 0.9);
  out.found_frac = lookups == 0 ? 0
                                 : static_cast<double>(found) /
                                       static_cast<double>(lookups);
  return out;
}

void engine_layer_metrics(const KeySet& keys, const SnapshotPtr& snap,
                          double query_p50_us, Report& layers) {
  sixdust::serve::SnapshotManager snaps;
  snaps.publish(snap);
  const sixdust::serve::QueryEngine engine(&snaps, nullptr);
  std::size_t sink = 0;
  // Repeat passes until each measurement covers at least 50 ms.
  auto time_ns = [](std::size_t calls, auto&& pass) {
    const auto t0 = Clock::now();
    std::size_t done = 0;
    do {
      pass();
      done += calls;
    } while (seconds_since(t0) < 0.05);
    return done == 0 ? 0.0 : static_cast<double>(ns_since(t0)) / done;
  };

  static constexpr std::pair<Op, const char*> kOps[] = {
      {Op::kLookup, "lookup"},
      {Op::kOrigin, "origin"},
      {Op::kAlias, "alias"},
      {Op::kEpochInfo, "epoch_info"}};
  double mix_ns = 0;
  for (const auto& [op, name] : kOps) {
    std::vector<const std::vector<std::uint8_t>*> bodies;
    for (std::size_t i = 0; i < keys.ops.size(); ++i)
      if (keys.ops[i] == op) bodies.push_back(&keys.bodies[i]);
    const double ns = time_ns(bodies.size(), [&] {
      for (const auto* b : bodies) sink += engine.handle(*b).size();
    });
    mix_ns += ns * static_cast<double>(bodies.size()) /
              static_cast<double>(keys.ops.size());
    layers.add(std::string("serve.engine_ns.") + name, ns, "ns");
  }
  const double origin_ns = time_ns(keys.addrs.size(), [&] {
    for (const auto& a : keys.addrs) sink += snap->origin(a).has_value();
  });
  layers.add("netbase.origin_lookup_ns", origin_ns, "ns");
  layers.add("serve.transport_us", query_p50_us - mix_ns / 1e3, "us");
  if (sink == 0) std::fprintf(stderr, "note: engine produced no bytes\n");
}

}  // namespace perfbench
