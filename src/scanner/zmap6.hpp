#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/thread_pool.hpp"
#include "netbase/prefix_set.hpp"
#include "obs/metrics.hpp"
#include "topo/world.hpp"

namespace sixdust {

/// What a UDP/53 probe observed — the raw material of the GFW detector
/// (Sec. 4.2): response multiplicity, A-records answering AAAA questions,
/// Teredo addresses in AAAA answers, and embedded IPv4s.
struct DnsObservation {
  int response_count = 0;
  bool a_answer_to_aaaa = false;  // got an A record for an AAAA question
  bool teredo_aaaa = false;       // got a Teredo address in an AAAA record
  bool clean_aaaa = false;        // got a plausible (non-Teredo) AAAA
  Rcode rcode = Rcode::NoError;   // of the first response
  std::vector<Ipv4> embedded_v4;  // from A records / Teredo client fields
};

/// One responsive target, with the features later stages need (TCP
/// fingerprinting, DNS-injection filtering).
struct ScanRecord {
  Ipv6 target;
  /// The target's position in the scanned span (0 for probe_one(), which
  /// scans no span).
  std::uint32_t index = 0;
  std::optional<TcpFeatures> tcp;
  std::uint8_t hop_limit = 0;
  std::optional<DnsObservation> dns;
};

struct ScanResult {
  Proto proto = Proto::Icmp;
  ScanDate date;
  std::uint64_t targets = 0;
  std::uint64_t blocked = 0;
  std::uint64_t probes_sent = 0;
  /// Simulated wall-clock duration of the run at the configured rate.
  double duration_seconds = 0;
  std::vector<ScanRecord> responsive;
};

/// ZMapv6-style stateless scanner against the simulated Internet.
///
/// Faithful to the original's architecture: targets are visited in a
/// cyclic-multiplicative-group permutation, a blocklist suppresses probes,
/// probe modules per protocol build the probe and classify responses, and
/// any response at all counts as success — including, deliberately, GFW
/// injections (it is the downstream filter's job to remove those, which is
/// the paper's point).
class Zmap6 {
 public:
  struct Config {
    std::uint64_t seed = 7;
    /// Channel loss probability per probe (deterministic in the flow).
    double loss = 0.01;
    /// Retransmissions per target (ZMap -P); any response wins.
    int retries = 0;
    /// The DNS question asked by the UDP/53 module — the hitlist service
    /// queries a AAAA record for www.google.com (a GFW-blocked name).
    DnsQuestion dns_question{"www.google.com", RrType::AAAA};
    const PrefixSet* blocklist = nullptr;
    /// Probe rate in packets per simulated second. The default makes the
    /// 2018 service iteration take about a day and the 2022 one several
    /// days — the runtime growth of the paper's Fig. 4 caption. (The real
    /// service probes ~10^4x faster at 10^3-10^4x the target count.)
    double pps = 3.0;
    /// Sender threads for scan(): 0 = hardware concurrency, 1 = the exact
    /// sequential path. Any thread count produces byte-identical results
    /// (shard slices are merged in deterministic shard order).
    unsigned threads = 1;
    /// Scan telemetry sink (null = no metrics). Per-protocol probe/answer/
    /// exclusion counters are stable — their totals are identical for
    /// every thread count.
    MetricsRegistry* metrics = nullptr;
  };

  explicit Zmap6(Config cfg)
      : cfg_(cfg), pool_(ThreadPool::create(cfg.threads)) {
    init_metrics();
  }

  /// Share an executor (the hitlist service runs all its probe stages on
  /// one pool). A null pool restores the sequential path.
  void set_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

  /// Scan `targets` on `date` for every protocol in `protos`: one result
  /// per protocol, in kAllProtos order. Each target is resolved once — its
  /// blocklist verdict and World::answers — in one parallel pass; each
  /// protocol then walks its own permutation over that column, probing the
  /// world only where a response can come back. Results, probe order and
  /// counters equal one single-protocol scan per protocol.
  [[nodiscard]] std::vector<ScanResult> scan(const World& world,
                                             std::span<const Ipv6> targets,
                                             ProtoMask protos,
                                             ScanDate date) const;

  /// Scan `targets` for `proto` on `date`.
  [[nodiscard]] ScanResult scan(const World& world, std::span<const Ipv6> targets,
                                Proto proto, ScanDate date) const;

  /// Distributed scanning (ZMap --shards/--shard): probe only the targets
  /// of shard `shard` of `shards`. Each shard owns a contiguous arc of
  /// the permutation cycle, so the union over all shards equals a full
  /// scan, each shard only resolves and walks its own O(N/shards) slice,
  /// each shard's load spreads across the address space like the full
  /// run, and concatenating shard results in shard order reproduces the
  /// full scan's probe order byte-for-byte (which is how scan()
  /// parallelizes).
  [[nodiscard]] ScanResult scan_shard(const World& world,
                                      std::span<const Ipv6> targets,
                                      Proto proto, ScanDate date,
                                      std::uint32_t shard,
                                      std::uint32_t shards) const;

  /// Probe one target once (no loss model) — used by fingerprinting
  /// stages that implement their own retry discipline.
  [[nodiscard]] std::optional<ScanRecord> probe_one(const World& world,
                                                    const Ipv6& target,
                                                    Proto proto,
                                                    ScanDate date) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  [[nodiscard]] bool lost(const Ipv6& target, Proto proto, ScanDate date,
                          int attempt) const;

  /// A target's resolution for one scan: the protocols of the scanned set
  /// whose probe can draw a response (for UDP/53 that includes GFW
  /// injections), or kBlocked. Lives for one scan call only.
  using Verdict = std::uint8_t;
  static constexpr Verdict kBlocked = 0x80;
  [[nodiscard]] Verdict resolve(const World& world, const Ipv6& target,
                                ProtoMask protos, ScanDate date) const;

  /// The per-probe classification loop: walk shard `shard` of `shards` of
  /// `proto`'s permutation over `targets` and their `verdicts`.
  [[nodiscard]] ScanResult walk(const World& world,
                                std::span<const Ipv6> targets,
                                std::span<const Verdict> verdicts, Proto proto,
                                ScanDate date, std::uint32_t shard,
                                std::uint32_t shards) const;

  void init_metrics();
  /// Shard-level accounting: each shard slice adds its own totals (the
  /// per-worker shards of the registry merge them at snapshot time).
  void record_shard(const ScanResult& r) const;
  void record_scan(const ScanResult& r) const;

  /// Handles resolved once at construction — the hot loop never touches
  /// the registry. Indexed by proto_index().
  struct ProtoMetrics {
    Counter* sent = nullptr;
    Counter* answered = nullptr;
    Counter* blocked = nullptr;
    Counter* scans = nullptr;
  };

  Config cfg_;
  std::shared_ptr<ThreadPool> pool_;
  std::array<ProtoMetrics, kProtoCount> proto_metrics_{};
  Histogram* probes_per_scan_ = nullptr;
};

/// Summarize DNS responses into the observation record.
[[nodiscard]] DnsObservation observe_dns(const std::vector<DnsMessage>& responses,
                                         const DnsQuestion& q);

}  // namespace sixdust
