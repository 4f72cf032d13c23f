#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"

namespace sixdust {

/// [begin, end) of chunk `c` when [0, n) is split into `chunks` near-equal
/// contiguous slices. Static and purely arithmetic, so the work assignment
/// is identical no matter how many threads actually execute it.
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> chunk_range(
    std::size_t n, std::size_t chunks, std::size_t c) {
  return {n * c / chunks, n * (c + 1) / chunks};
}

/// How many chunks work over `n` items should use on `pool`: `per_thread`
/// per pool thread (more than one lets the pool balance work that is
/// uneven across the items), never more than items; 1 when running
/// sequentially.
[[nodiscard]] inline std::size_t parallel_chunks(const ThreadPool* pool,
                                                 std::size_t n,
                                                 std::size_t per_thread = 1) {
  if (n == 0) return 0;
  if (pool == nullptr) return 1;
  return std::min<std::size_t>(pool->size() * per_thread, n);
}

/// Static-chunked parallel loop: fn(chunk, begin, end) over `chunks`
/// contiguous slices of [0, n). Runs inline (in ascending chunk order)
/// when `pool` is null or only one chunk exists; the chunk assignment is
/// the same either way, so anything indexed by chunk or item is
/// deterministic across thread counts.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t chunks,
                  Fn&& fn) {
  if (n == 0 || chunks == 0) return;
  chunks = std::min(chunks, n);
  if (pool == nullptr || chunks < 2) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = chunk_range(n, chunks, c);
      fn(c, lo, hi);
    }
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c)
    tasks.push_back([&fn, n, chunks, c] {
      const auto [lo, hi] = chunk_range(n, chunks, c);
      fn(c, lo, hi);
    });
  pool->run(std::move(tasks));
}

/// fn(i) for every i in [0, n), results returned in index order no matter
/// the execution order. R must be default-constructible.
template <typename R, typename Fn>
std::vector<R> ordered_map(ThreadPool* pool, std::size_t n, Fn&& fn) {
  std::vector<R> out(n);
  if (pool == nullptr || n < 2) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    tasks.push_back([&out, &fn, i] { out[i] = fn(i); });
  pool->run(std::move(tasks));
  return out;
}

/// Deterministic reduction: the worker results fn(0) .. fn(n-1) are merged
/// with merge(acc, part) strictly in index order, so the parallel result
/// is byte-identical to the sequential left fold — worker scheduling can
/// reorder execution but never the merge.
template <typename Acc, typename Fn, typename Merge>
Acc ordered_reduce(ThreadPool* pool, std::size_t n, Acc init, Fn&& fn,
                   Merge&& merge) {
  using Part = std::decay_t<decltype(fn(std::size_t{0}))>;
  auto parts = ordered_map<Part>(pool, n, std::forward<Fn>(fn));
  for (auto& p : parts) merge(init, p);
  return init;
}

}  // namespace sixdust
