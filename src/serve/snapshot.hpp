#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asdb/rib.hpp"
#include "netbase/prefix_set.hpp"
#include "proto/types.hpp"

namespace sixdust {
class HitlistService;
class World;
}  // namespace sixdust

namespace sixdust::serve {

/// Immutable view of the hitlist world as of one completed scan epoch —
/// the unit the daemon publishes and every query resolves against.
///
/// A snapshot is deeply immutable after construction (the responsive table
/// is sorted, the aliased set is a PrefixSet, the RIB pointer refers to
/// the world's immutable RIB), so any number of reader threads may query one
/// concurrently without synchronization — the same contract as FrozenLpm
/// (DESIGN.md §8). Epoch isolation comes from never mutating a snapshot:
/// the next epoch freezes a new one and swaps it in (see SnapshotManager).
class EpochSnapshot {
 public:
  struct Info {
    int epoch = -1;           // scan index that produced this snapshot
    std::string date;         // ScanDate::str() of that scan
    std::uint64_t input_total = 0;
    std::uint64_t scan_targets = 0;
    std::uint64_t aliased_prefixes = 0;
    std::uint64_t responsive = 0;
    std::uint64_t excluded_total = 0;
  };

  /// `responsive` must be sorted by address (History::Entry order); `rib`
  /// is borrowed and must outlive the snapshot (the world owns it).
  EpochSnapshot(Info info,
                std::vector<std::pair<Ipv6, ProtoMask>> responsive,
                const std::vector<Prefix>& aliased, const Rib* rib);

  [[nodiscard]] const Info& info() const { return info_; }
  [[nodiscard]] int epoch() const { return info_.epoch; }

  /// Per-protocol responsiveness mask of `a` in this epoch, if responsive.
  [[nodiscard]] std::optional<ProtoMask> lookup(const Ipv6& a) const;

  /// True when `a` falls inside an aliased (fully-responsive) prefix.
  [[nodiscard]] bool alias_covers(const Ipv6& a) const {
    return aliased_.covers(a);
  }
  /// The covering aliased prefix, if any.
  [[nodiscard]] std::optional<Prefix> alias_prefix(const Ipv6& a) const {
    return aliased_.covering(a);
  }

  /// Most-specific announced route covering `a` (origin AS lookup).
  [[nodiscard]] std::optional<Rib::Route> origin(const Ipv6& a) const {
    return rib_ == nullptr ? std::nullopt : rib_->route(a);
  }

  [[nodiscard]] const std::vector<std::pair<Ipv6, ProtoMask>>& responsive()
      const {
    return responsive_;
  }
  [[nodiscard]] const std::vector<Prefix>& aliased_prefixes() const {
    return aliased_.prefixes();
  }

  /// FNV-1a fingerprint of the full snapshot contents (info counters,
  /// responsive table, aliased prefixes) — a pure function of the seeded
  /// simulation. The differential tests compare daemon-vs-batch epochs by
  /// digest, and readers of a live daemon verify they are looking at one
  /// coherent epoch by recomputing it (see content_digest()).
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Recompute the digest from current contents. Equal to digest() by
  /// construction; the concurrency tests call this from reader threads to
  /// prove a swapped-in snapshot is never observed half-built.
  [[nodiscard]] std::uint64_t content_digest() const;

 private:
  Info info_;
  std::vector<std::pair<Ipv6, ProtoMask>> responsive_;
  PrefixSet aliased_;
  const Rib* rib_ = nullptr;
  std::uint64_t digest_ = 0;
};

/// Freeze the service's state into a self-contained snapshot. Call at the
/// epoch barrier — after step() folded every stage of scan `outcome.date`
/// — from the epoch thread only (it reads service state the next step
/// mutates). The snapshot shares nothing mutable with the service.
[[nodiscard]] std::shared_ptr<const EpochSnapshot> freeze_epoch(
    const HitlistService& service, const World& world, int epoch);

}  // namespace sixdust::serve
