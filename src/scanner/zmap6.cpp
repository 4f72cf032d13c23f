#include "scanner/zmap6.hpp"

#include "core/parallel.hpp"
#include "obs/trace.hpp"
#include "scanner/cyclic.hpp"
#include "scanner/rate_limit.hpp"

namespace sixdust {

namespace {

/// Below this many targets a parallel dispatch costs more than it saves;
/// the sequential and parallel paths produce identical output either way.
constexpr std::size_t kParallelMinTargets = 256;

/// Probes-per-scan size histogram buckets (shared with APD's round
/// histogram): scan sizes from test fixtures up to full-service sweeps.
constexpr std::uint64_t kProbeCountBounds[] = {256,    1024,    4096,   16384,
                                               65536,  262144,  1048576};

}  // namespace

void Zmap6::init_metrics() {
  MetricsRegistry* reg = cfg_.metrics;
  if (reg == nullptr) return;
  for (Proto p : kAllProtos) {
    ProtoMetrics& m = proto_metrics_[static_cast<std::size_t>(proto_index(p))];
    const std::string label = "{proto=" + proto_token(p) + "}";
    m.sent = &reg->counter("scanner.probes_sent" + label, Stability::kStable);
    m.answered = &reg->counter("scanner.answered" + label, Stability::kStable);
    m.blocked = &reg->counter("scanner.blocked" + label, Stability::kStable);
    m.scans = &reg->counter("scanner.scans" + label, Stability::kStable);
  }
  probes_per_scan_ = &reg->histogram("scanner.probes_per_scan",
                                     kProbeCountBounds, Stability::kStable);
}

void Zmap6::record_shard(const ScanResult& r) const {
  const ProtoMetrics& m =
      proto_metrics_[static_cast<std::size_t>(proto_index(r.proto))];
  if (m.sent == nullptr) return;
  m.sent->add(r.probes_sent);
  m.answered->add(r.responsive.size());
  m.blocked->add(r.blocked);
}

void Zmap6::record_scan(const ScanResult& r) const {
  const ProtoMetrics& m =
      proto_metrics_[static_cast<std::size_t>(proto_index(r.proto))];
  if (m.scans == nullptr) return;
  m.scans->inc();
  probes_per_scan_->record(r.probes_sent);
}

DnsObservation observe_dns(const std::vector<DnsMessage>& responses,
                           const DnsQuestion& q) {
  DnsObservation obs;
  obs.response_count = static_cast<int>(responses.size());
  bool first = true;
  for (const auto& m : responses) {
    if (first) {
      obs.rcode = m.rcode;
      first = false;
    }
    for (const auto& rr : m.answers) {
      if (rr.type == RrType::A && q.qtype == RrType::AAAA) {
        obs.a_answer_to_aaaa = true;
        if (const auto* v4 = std::get_if<Ipv4>(&rr.rdata))
          obs.embedded_v4.push_back(*v4);
      } else if (rr.type == RrType::AAAA) {
        if (const auto* v6 = std::get_if<Ipv6>(&rr.rdata)) {
          if (auto client = teredo_client(*v6)) {
            obs.teredo_aaaa = true;
            obs.embedded_v4.push_back(*client);
          } else {
            obs.clean_aaaa = true;
          }
        }
      }
    }
  }
  return obs;
}

bool Zmap6::lost(const Ipv6& target, Proto proto, ScanDate date,
                 int attempt) const {
  if (cfg_.loss <= 0) return false;
  const std::uint64_t h = hash_combine(
      hash_of(target, cfg_.seed),
      (static_cast<std::uint64_t>(date.index) << 16) |
          (static_cast<std::uint64_t>(proto_index(proto)) << 8) |
          static_cast<std::uint64_t>(attempt));
  return unit_from_hash(h) < cfg_.loss;
}

std::optional<ScanRecord> Zmap6::probe_one(const World& world,
                                           const Ipv6& target, Proto proto,
                                           ScanDate date) const {
  ScanRecord rec;
  rec.target = target;
  switch (proto) {
    case Proto::Icmp: {
      auto r = world.icmp_echo(target, IcmpEchoRequest{}, date);
      if (!r) return std::nullopt;
      rec.hop_limit = r->hop_limit;
      return rec;
    }
    case Proto::Tcp80:
    case Proto::Tcp443: {
      auto r = world.tcp_syn(target, proto == Proto::Tcp80 ? 80 : 443, date);
      if (!r) return std::nullopt;
      rec.tcp = r->features;
      rec.hop_limit = r->hop_limit;
      return rec;
    }
    case Proto::Udp53: {
      auto responses = world.dns_query(target, cfg_.dns_question, date);
      if (responses.empty()) return std::nullopt;
      rec.dns = observe_dns(responses, cfg_.dns_question);
      return rec;
    }
    case Proto::Udp443: {
      auto r = world.quic_probe(target, date);
      if (!r) return std::nullopt;
      return rec;
    }
  }
  return std::nullopt;
}

namespace {

/// One stable span per protocol scan. The simulated duration comes from
/// the merged result (a pure function of the run), so the span is
/// identical whichever pool thread ran the scan; per-shard slices get
/// their own *volatile* spans because their count is the pool size.
void trace_scan(MetricsRegistry* reg, const ScanResult& r) {
  trace_span(reg, "scanner.scan", SpanCat::kScanner)
      .attr("proto", proto_token(r.proto))
      .attr("scan", r.date.index)
      .attr("targets", r.targets)
      .attr("probes", r.probes_sent)
      .attr("answered", r.responsive.size())
      .attr("blocked", r.blocked)
      .sim_duration_us(
          static_cast<std::uint64_t>(r.duration_seconds * 1e6));
}

}  // namespace

Zmap6::Verdict Zmap6::resolve(const World& world, const Ipv6& target,
                              ProtoMask protos, ScanDate date) const {
  if (cfg_.blocklist != nullptr && cfg_.blocklist->covers(target))
    return kBlocked;
  ProtoMask may = world.answers(target, date) & protos;
  // The GFW injects on-path whether or not a host exists at the target.
  if (mask_has(protos, Proto::Udp53) && !mask_has(may, Proto::Udp53) &&
      world.behind_gfw(target))
    may |= proto_bit(Proto::Udp53);
  return may;
}

namespace {

CyclicPermutation permutation(std::uint64_t n, std::uint64_t seed,
                              Proto proto) {
  return CyclicPermutation(n, hash_combine(seed, proto_index(proto)));
}

/// fn(index) for every target index on shard `shard`'s arc of `perm`, in
/// probe order.
template <typename Fn>
void for_each_in_arc(const CyclicPermutation& perm, std::uint64_t n,
                     std::uint32_t shard, std::uint32_t shards, Fn&& fn) {
  const auto arc = perm.shard_arc(shard, shards);
  std::uint64_t cur = perm.cycle_element(arc.begin);
  for (std::uint64_t j = arc.begin; j < arc.end;
       ++j, cur = perm.cycle_advance(cur)) {
    const std::uint64_t index = perm.cycle_value(cur);
    if (index < n) fn(index);  // else a skipped cycle position
  }
}

}  // namespace

std::vector<ScanResult> Zmap6::scan(const World& world,
                                    std::span<const Ipv6> targets,
                                    ProtoMask protos, ScanDate date) const {
  std::vector<Proto> scanned;
  for (Proto p : kAllProtos)
    if (mask_has(protos, p)) scanned.push_back(p);
  ThreadPool* pool =
      targets.size() < kParallelMinTargets ? nullptr : pool_.get();

  // 1. Resolve every target once for all scanned protocols.
  std::vector<Verdict> verdicts(targets.size());
  {
    Span span = trace_span(cfg_.metrics, "scanner.resolve", SpanCat::kScanner,
                           Stability::kVolatile);
    span.attr("targets", static_cast<std::uint64_t>(targets.size()));
    parallel_for(pool, targets.size(), parallel_chunks(pool, targets.size()),
                 [&](std::size_t, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     verdicts[i] = resolve(world, targets[i], protos, date);
                 });
  }

  // 2. One shard slice per pool thread and protocol; concatenating a
  // protocol's slices in shard order is exactly its sequential probe order.
  const std::uint32_t slices =
      pool == nullptr ? 1 : static_cast<std::uint32_t>(pool->size());
  std::vector<ScanResult> parts = ordered_map<ScanResult>(
      pool, scanned.size() * slices, [&](std::size_t k) {
        return walk(world, targets, verdicts, scanned[k / slices], date,
                    static_cast<std::uint32_t>(k % slices), slices);
      });

  std::vector<ScanResult> out;
  out.reserve(scanned.size());
  for (std::size_t pi = 0; pi < scanned.size(); ++pi) {
    ScanResult merged;
    merged.proto = scanned[pi];
    merged.date = date;
    merged.targets = targets.size();
    for (std::uint32_t s = 0; s < slices; ++s) {
      ScanResult& part = parts[pi * slices + s];
      merged.blocked += part.blocked;
      merged.probes_sent += part.probes_sent;
      merged.responsive.insert(merged.responsive.end(),
                               std::make_move_iterator(part.responsive.begin()),
                               std::make_move_iterator(part.responsive.end()));
    }
    merged.duration_seconds =
        scan_duration_seconds(merged.probes_sent, cfg_.pps);
    record_scan(merged);
    trace_scan(cfg_.metrics, merged);
    out.push_back(std::move(merged));
  }
  return out;
}

ScanResult Zmap6::scan(const World& world, std::span<const Ipv6> targets,
                       Proto proto, ScanDate date) const {
  return std::move(scan(world, targets, proto_bit(proto), date).front());
}

ScanResult Zmap6::scan_shard(const World& world,
                             std::span<const Ipv6> targets, Proto proto,
                             ScanDate date, std::uint32_t shard,
                             std::uint32_t shards) const {
  // Resolve only the targets on this shard's arc.
  std::vector<Verdict> verdicts(targets.size());
  if (!targets.empty() && shard < shards)
    for_each_in_arc(permutation(targets.size(), cfg_.seed, proto),
                    targets.size(), shard, shards, [&](std::uint64_t i) {
                      verdicts[i] =
                          resolve(world, targets[i], proto_bit(proto), date);
                    });
  return walk(world, targets, verdicts, proto, date, shard, shards);
}

ScanResult Zmap6::walk(const World& world, std::span<const Ipv6> targets,
                       std::span<const Verdict> verdicts, Proto proto,
                       ScanDate date, std::uint32_t shard,
                       std::uint32_t shards) const {
  ScanResult result;
  result.proto = proto;
  result.date = date;
  result.targets = targets.size();
  if (targets.empty() || shard >= shards) return result;

  // Volatile: the shard fan-out (and so this span's existence) depends on
  // the pool size, which the stable surface must not see.
  Span shard_span = trace_span(cfg_.metrics, "scanner.shard",
                               SpanCat::kScanner, Stability::kVolatile);
  shard_span.attr("proto", proto_token(proto))
      .attr("shard", static_cast<std::uint64_t>(shard))
      .attr("shards", static_cast<std::uint64_t>(shards));

  for_each_in_arc(
      permutation(targets.size(), cfg_.seed, proto), targets.size(), shard,
      shards, [&](std::uint64_t index) {
        const Verdict v = verdicts[index];
        if ((v & kBlocked) != 0) {
          ++result.blocked;
          return;
        }
        const Ipv6& t = targets[index];
        for (int attempt = 0; attempt <= cfg_.retries; ++attempt) {
          ++result.probes_sent;
          if (lost(t, proto, date, attempt)) continue;
          // A target that cannot answer stays silent; retrying won't help.
          if (!mask_has(v, proto)) break;
          auto rec = probe_one(world, t, proto, date);
          if (rec) {
            rec->index = static_cast<std::uint32_t>(index);
            result.responsive.push_back(std::move(*rec));
          }
          break;
        }
      });
  result.duration_seconds = scan_duration_seconds(result.probes_sent, cfg_.pps);
  record_shard(result);
  shard_span.attr("probes", result.probes_sent);
  return result;
}

}  // namespace sixdust
