#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sixdust {

class MetricsRegistry;
class Counter;

/// Fixed-size work-crew executor shared by the scan stages (ZMapv6 shard
/// slices, APD candidate chunks, Yarrp trace slices, the service's
/// per-protocol fan-out).
///
/// run() is the only entry point: submit a batch of independent tasks and
/// block until all of them finished. The calling thread *participates* in
/// execution — a pool of size T runs with T-1 background workers plus the
/// caller, so total concurrency equals the configured thread count, and a
/// nested run() (a parallel scan dispatched from inside a parallel
/// protocol fan-out) cannot deadlock: the nested caller drains *its own
/// batch's* pending tasks while it waits. Helping is batch-scoped on
/// purpose — stealing sibling-batch tasks from a suspended frame can
/// execute a long-lived task that depends on the frame it preempted,
/// which livelocks.
///
/// The pool provides *execution* only; determinism is the callers' job —
/// they place results into pre-assigned slots and merge in index order
/// (see core/parallel.hpp), so output never depends on scheduling.
class ThreadPool {
 public:
  /// Resolve a config thread count: 0 = hardware concurrency, else n.
  [[nodiscard]] static unsigned resolve(unsigned requested);

  /// Shared-executor factory: nullptr when `requested` resolves to 1 —
  /// the sequential path needs no pool at all, and every parallel helper
  /// treats a null pool as "run inline".
  [[nodiscard]] static std::shared_ptr<ThreadPool> create(unsigned requested);

  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured concurrency (workers + the calling thread).
  [[nodiscard]] unsigned size() const { return size_; }

  /// Execute every task, returning once all completed. Tasks must not
  /// throw. Safe to call from inside a task (nested batches share the
  /// queue; the waiter helps execute whatever is pending).
  void run(std::vector<std::function<void()>> tasks);

  /// Attach task accounting (pool.batches / pool.tasks / pool.tasks_helped
  /// / pool.tasks_worker). All pool metrics are volatile: batch sizes
  /// depend on the pool size and helped-vs-worker split on scheduling, so
  /// none of them belong to the deterministic snapshot surface. Call
  /// before the first run(); a null registry detaches.
  void set_metrics(MetricsRegistry* reg);

 private:
  struct Batch;
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Batch> batch;
  };

  static void execute(Task& t);
  void worker_loop();

  // Atomic: set_metrics() may install the handles while workers are
  // already inside their idle spin loop (service construction order), so
  // the pointers are published with release stores and read relaxed.
  std::atomic<Counter*> m_batches_{nullptr};
  std::atomic<Counter*> m_tasks_{nullptr};
  std::atomic<Counter*> m_tasks_helped_{nullptr};
  std::atomic<Counter*> m_tasks_worker_{nullptr};
  std::atomic<Counter*> m_worker_spins_{nullptr};
  std::atomic<Counter*> m_worker_parks_{nullptr};

  unsigned size_;
  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace sixdust
