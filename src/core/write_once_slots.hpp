#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace sixdust {

/// A lock-free table of write-once slots indexed by a non-negative integer,
/// for immutable values that are built on first use and never change
/// afterwards (the per-epoch tables of the simulated world).
///
/// `get(i, build)` returns slot i, calling `build()` to fill it when it is
/// still empty. A filled slot is published with one release CAS, so every
/// later reader does two acquire loads and takes no lock. Two threads that
/// race on an empty slot may both build it; the loser's copy is discarded,
/// so `build` must be a pure function of the index. Published values stay
/// at the same address until the table is destroyed.
///
/// Slots live in 32 segments of doubling size — segment k holds indices
/// [2^k - 1, 2^(k+1) - 1) and is allocated on first use — so every index
/// below 2^32 - 1 works without a cap, and memory follows the largest
/// index asked for, not a configured horizon.
template <typename T>
class WriteOnceSlots {
 public:
  WriteOnceSlots() = default;
  WriteOnceSlots(const WriteOnceSlots&) = delete;
  WriteOnceSlots& operator=(const WriteOnceSlots&) = delete;
  ~WriteOnceSlots() {
    for (std::size_t k = 0; k < kSegments; ++k) {
      Slot* seg = segments_[k].load(std::memory_order_acquire);
      if (seg == nullptr) continue;
      for (std::size_t j = 0; j < segment_size(k); ++j)
        delete seg[j].load(std::memory_order_acquire);
      delete[] seg;
    }
  }

  /// Slot `i`, built by `build()` (returning a T) if it is still empty.
  /// Throws std::out_of_range for i >= 2^32 - 1.
  template <typename Build>
  const T& get(std::uint64_t i, Build&& build) {
    const auto [k, j] = locate(i);
    Slot& slot = segment(k)[j];
    if (const T* v = slot.load(std::memory_order_acquire)) return *v;
    auto fresh = std::make_unique<const T>(build());
    const T* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return *fresh.release();
    return *expected;  // another thread published first
  }

 private:
  using Slot = std::atomic<const T*>;
  static constexpr std::size_t kSegments = 32;

  [[nodiscard]] static constexpr std::size_t segment_size(std::size_t k) {
    return std::size_t{1} << k;
  }

  struct Where {
    std::size_t segment;
    std::size_t offset;
  };
  [[nodiscard]] static Where locate(std::uint64_t i) {
    const std::uint64_t n = i + 1;
    const auto k = static_cast<std::size_t>(std::bit_width(n)) - 1;
    if (k >= kSegments) throw std::out_of_range("WriteOnceSlots index");
    return {k, static_cast<std::size_t>(n - (std::uint64_t{1} << k))};
  }

  [[nodiscard]] Slot* segment(std::size_t k) {
    Slot* seg = segments_[k].load(std::memory_order_acquire);
    if (seg != nullptr) return seg;
    auto fresh = std::make_unique<Slot[]>(segment_size(k));  // all null
    if (segments_[k].compare_exchange_strong(seg, fresh.get(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
      return fresh.release();
    return seg;  // another thread published first
  }

  std::array<std::atomic<Slot*>, kSegments> segments_{};
};

}  // namespace sixdust
