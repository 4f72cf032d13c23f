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

ScanResult Zmap6::scan(const World& world, std::span<const Ipv6> targets,
                       Proto proto, ScanDate date) const {
  ThreadPool* pool = pool_.get();
  if (pool == nullptr || targets.size() < kParallelMinTargets) {
    ScanResult merged = scan_shard(world, targets, proto, date, 0, 1);
    record_scan(merged);
    trace_scan(cfg_.metrics, merged);
    return merged;
  }

  // One shard slice per pool thread; the ordered reduce concatenates the
  // slices in shard order, which is exactly the sequential probe order.
  const auto slices = static_cast<std::uint32_t>(pool->size());
  ScanResult merged = ordered_reduce(
      pool, slices, ScanResult{},
      [&](std::size_t s) {
        return scan_shard(world, targets, proto, date,
                          static_cast<std::uint32_t>(s), slices);
      },
      [](ScanResult& acc, ScanResult& part) {
        acc.blocked += part.blocked;
        acc.probes_sent += part.probes_sent;
        acc.responsive.insert(acc.responsive.end(),
                              std::make_move_iterator(part.responsive.begin()),
                              std::make_move_iterator(part.responsive.end()));
      });
  merged.proto = proto;
  merged.date = date;
  merged.targets = targets.size();
  merged.duration_seconds = scan_duration_seconds(merged.probes_sent, cfg_.pps);
  record_scan(merged);
  trace_scan(cfg_.metrics, merged);
  return merged;
}

ScanResult Zmap6::scan_shard(const World& world,
                             std::span<const Ipv6> targets, Proto proto,
                             ScanDate date, std::uint32_t shard,
                             std::uint32_t shards) const {
  ScanResult result;
  result.proto = proto;
  result.date = date;
  result.targets = targets.size();
  if (targets.empty() || shards == 0 || shard >= shards) return result;

  // Volatile: the shard fan-out (and so this span's existence) depends on
  // the pool size, which the stable surface must not see.
  Span shard_span = trace_span(cfg_.metrics, "scanner.shard",
                               SpanCat::kScanner, Stability::kVolatile);
  shard_span.attr("proto", proto_token(proto))
      .attr("shard", static_cast<std::uint64_t>(shard))
      .attr("shards", static_cast<std::uint64_t>(shards));

  const CyclicPermutation perm(targets.size(),
                               hash_combine(cfg_.seed, proto_index(proto)));
  const auto arc = perm.shard_arc(shard, shards);
  std::uint64_t cur = perm.cycle_element(arc.begin);
  for (std::uint64_t j = arc.begin; j < arc.end;
       ++j, cur = perm.cycle_advance(cur)) {
    const std::uint64_t index = perm.cycle_value(cur);
    if (index >= targets.size()) continue;  // skipped cycle position
    const Ipv6& t = targets[index];
    if (cfg_.blocklist != nullptr && cfg_.blocklist->covers(t)) {
      ++result.blocked;
      continue;
    }
    bool answered = false;
    for (int attempt = 0; attempt <= cfg_.retries && !answered; ++attempt) {
      ++result.probes_sent;
      if (lost(t, proto, date, attempt)) continue;
      auto rec = probe_one(world, t, proto, date);
      if (!rec) break;  // target does not answer; retrying won't help
      result.responsive.push_back(std::move(*rec));
      answered = true;
    }
  }
  result.duration_seconds = scan_duration_seconds(result.probes_sent, cfg_.pps);
  record_shard(result);
  shard_span.attr("probes", result.probes_sent);
  return result;
}

}  // namespace sixdust
