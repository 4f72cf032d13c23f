#include "core/thread_pool.hpp"

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace sixdust {

namespace {

/// Bounded exponential backoff for idle waits: a short busy spin, then
/// yields, then capped micro-sleeps ("park"). The worker idle loop pauses
/// with it before parking on the condition variable, so an empty queue
/// never spin-burns a core. reset() after useful work; pause() when none
/// was found.
class Backoff {
 public:
  /// Spin rounds before the first yield, yields before the first park.
  static constexpr int kSpinLimit = 64;
  static constexpr int kYieldLimit = 16;
  /// Park duration doubles from 8µs up to this cap.
  static constexpr int kMaxParkUs = 256;

  void pause() {
    ++waits_;
    if (level_ < kSpinLimit) {
      // A handful of relaxed no-op loads approximates a pause instruction
      // without per-arch intrinsics.
      for (int i = 0; i < (1 << (level_ / 16)); ++i) dummy_.load(std::memory_order_relaxed);
      ++level_;
      return;
    }
    if (level_ < kSpinLimit + kYieldLimit) {
      ++level_;
      std::this_thread::yield();
      return;
    }
    ++parks_;
    const int exp = level_ - kSpinLimit - kYieldLimit;
    int us = 8 << (exp < 6 ? exp : 6);
    if (us > kMaxParkUs) us = kMaxParkUs;
    if (level_ < kSpinLimit + kYieldLimit + 8) ++level_;
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  void reset() { level_ = 0; }

  /// Total pause() calls / sleeps taken — volatile telemetry material.
  [[nodiscard]] std::uint64_t waits() const { return waits_; }
  [[nodiscard]] std::uint64_t parks() const { return parks_; }

 private:
  int level_ = 0;
  std::uint64_t waits_ = 0;
  std::uint64_t parks_ = 0;
  std::atomic<int> dummy_{0};
};

}  // namespace

/// Completion state of one run() call. Heap-held via shared_ptr from every
/// task and from the waiter, so no lifetime race exists between the last
/// task signalling completion and the waiter returning.
struct ThreadPool::Batch {
  explicit Batch(std::size_t n) : remaining(n) {}
  std::size_t remaining;  // guarded by m
  std::mutex m;
  std::condition_variable done;
};

unsigned ThreadPool::resolve(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::shared_ptr<ThreadPool> ThreadPool::create(unsigned requested) {
  const unsigned n = resolve(requested);
  if (n < 2) return nullptr;
  return std::make_shared<ThreadPool>(n);
}

ThreadPool::ThreadPool(unsigned threads) : size_(threads < 1 ? 1 : threads) {
  workers_.reserve(size_ - 1);
  for (unsigned i = 0; i + 1 < size_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::set_metrics(MetricsRegistry* reg) {
  if (reg == nullptr) {
    for (auto* p : {&m_batches_, &m_tasks_, &m_tasks_helped_,
                    &m_tasks_worker_, &m_worker_spins_, &m_worker_parks_})
      p->store(nullptr, std::memory_order_release);
    return;
  }
  m_batches_.store(&reg->counter("pool.batches", Stability::kVolatile),
                   std::memory_order_release);
  m_tasks_.store(&reg->counter("pool.tasks", Stability::kVolatile),
                 std::memory_order_release);
  m_tasks_helped_.store(
      &reg->counter("pool.tasks_helped", Stability::kVolatile),
      std::memory_order_release);
  m_tasks_worker_.store(
      &reg->counter("pool.tasks_worker", Stability::kVolatile),
      std::memory_order_release);
  m_worker_spins_.store(
      &reg->counter("pool.worker_spins", Stability::kVolatile),
      std::memory_order_release);
  m_worker_parks_.store(
      &reg->counter("pool.worker_parks", Stability::kVolatile),
      std::memory_order_release);
}

void ThreadPool::worker_loop() {
  // Idle discipline: a bounded exponential spin/yield phase before parking
  // on the condition variable. Back-to-back batches (the per-protocol
  // fan-out, then each scan's shard slices) typically find the next task
  // within the spin window; when they don't, the worker parks instead of
  // burning a core — the spin/park split is visible in the volatile
  // pool.worker_* metrics.
  for (;;) {
    Task t;
    bool have = false;
    int spins = 0;
    Backoff backoff;
    while (spins < Backoff::kSpinLimit + Backoff::kYieldLimit) {
      {
        std::lock_guard lk(m_);
        if (stop_ && queue_.empty()) break;
        if (!queue_.empty()) {
          t = std::move(queue_.front());
          queue_.pop_front();
          have = true;
          break;
        }
      }
      ++spins;
      backoff.pause();
    }
    if (Counter* c = m_worker_spins_.load(std::memory_order_acquire);
        c != nullptr && spins != 0)
      c->add(spins);
    if (!have) {
      std::unique_lock lk(m_);
      if (!stop_ && queue_.empty()) {
        if (Counter* c = m_worker_parks_.load(std::memory_order_acquire))
          c->inc();
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      }
      if (queue_.empty()) return;  // stop requested and queue drained
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    if (Counter* c = m_tasks_worker_.load(std::memory_order_acquire))
      c->inc();
    execute(t);
  }
}

void ThreadPool::execute(Task& t) {
  t.fn();
  std::lock_guard lk(t.batch->m);
  if (--t.batch->remaining == 0) t.batch->done.notify_all();
}

void ThreadPool::run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (Counter* c = m_batches_.load(std::memory_order_acquire)) {
    c->inc();
    m_tasks_.load(std::memory_order_acquire)->add(tasks.size());
  }
  if (workers_.empty()) {
    if (Counter* c = m_tasks_helped_.load(std::memory_order_acquire))
      c->add(tasks.size());
    for (auto& f : tasks) f();
    return;
  }
  auto batch = std::make_shared<Batch>(tasks.size());
  {
    std::lock_guard lk(m_);
    for (auto& f : tasks) queue_.push_back(Task{std::move(f), batch});
  }
  cv_.notify_all();

  // Help: drain pending tasks *of this batch* instead of blocking — this
  // is what makes nested run() calls deadlock-free: the submitter always
  // makes progress on its own batch. Helping is deliberately batch-scoped:
  // stealing a sibling batch's task from a nested frame can pick up a
  // long-lived task that cannot finish until the suspended frame resumes —
  // a livelock (see DESIGN.md §7 and ThreadPoolNestedBatch in
  // tests/test_parallel.cpp).
  for (;;) {
    Task t;
    {
      std::lock_guard lk(m_);
      auto it = queue_.begin();
      while (it != queue_.end() && it->batch != batch) ++it;
      if (it == queue_.end()) break;
      t = std::move(*it);
      queue_.erase(it);
    }
    if (Counter* c = m_tasks_helped_.load(std::memory_order_acquire)) c->inc();
    execute(t);
  }

  std::unique_lock lk(batch->m);
  batch->done.wait(lk, [&] { return batch->remaining == 0; });
}

}  // namespace sixdust
