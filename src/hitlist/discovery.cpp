#include "hitlist/discovery.hpp"

#include <algorithm>
#include <unordered_set>

#include "gfw/detector.hpp"
#include "topo/server_farm.hpp"
#include "traceroute/yarrp.hpp"

namespace sixdust {

std::vector<Ipv6> NewSourceEvaluator::tga_seeds() const {
  std::vector<Ipv6> seeds;
  const auto& entry = service_->history().at(cfg_.seed_scan);
  const auto& gfw = service_->gfw();
  for (const auto& [a, mask] : entry.responsive) {
    // GFW-cleaned: injected-only "responders" are not seeds.
    if (gfw.tainted(a) &&
        (mask & ~proto_bit(Proto::Udp53)) == 0)
      continue;
    seeds.push_back(a);
  }
  return seeds;
}

std::vector<Ipv6> NewSourceEvaluator::collect_ns_mx(const ZoneDb& zones,
                                                    ScanDate d) const {
  std::vector<Ipv6> out;
  for (std::uint32_t id = 0; id < zones.domain_count(); ++id) {
    if (auto ns = zones.resolve_ns(id, d)) out.push_back(*ns);
    if (auto mx = zones.resolve_mx(id, d)) out.push_back(*mx);
  }
  dedup_addresses(out);
  return out;
}

std::vector<Ipv6> NewSourceEvaluator::collect_ark(ScanDate d) const {
  // A second vantage point tracing one random address per announced
  // prefix: mostly rediscovers routers the service already knows, plus a
  // few border routers of otherwise-quiet networks (the paper: 90 % of
  // passive-source addresses were already in the input).
  std::vector<Ipv6> targets;
  targets.reserve(world_->rib().routes().size());
  for (const auto& route : world_->rib().routes())
    targets.push_back(
        route.prefix.random_address(hash_combine(cfg_.seed, 0xA2C)));
  Yarrp::Config yc;
  yc.seed = hash_combine(cfg_.seed, 0xCA1DA);
  yc.target_budget = targets.size();
  const auto traced = Yarrp{yc}.trace(*world_, targets, d);
  return traced.responsive_hops;
}

std::vector<Ipv6> NewSourceEvaluator::collect_det(ScanDate d) const {
  // DET's published snapshot: an independent hitlist built from similar
  // sources plus its own generation — modeled as an alternative sample of
  // the server-farm populations (overlapping ours, plus hosts our passive
  // sources never surfaced).
  std::vector<Ipv6> out;
  for (const auto& dep : world_->deployments()) {
    const auto* farm = dynamic_cast<const ServerFarm*>(dep.get());
    if (farm == nullptr) continue;
    const auto& fc = farm->config();
    const std::uint32_t subs = farm->subnet_count(d);
    for (std::uint32_t s = 0; s < subs; ++s) {
      for (std::uint32_t i = 0; i < fc.hosts_per_subnet; ++i) {
        const std::uint64_t host_id = hash_combine(hash_combine(fc.seed, s), i);
        const std::uint64_t h =
            hash_combine(hash_combine(cfg_.seed, 0xDE7), host_id);
        // DET collects from the same public surfaces the hitlist does, so
        // its snapshot is mostly known addresses (paper: 90 % of passive
        // candidates were already input) plus a thin layer of addresses
        // its own generation discovered.
        const bool publicly_known =
            unit_from_hash(hash_combine(host_id, 0x1c70)) < fc.known_frac;
        const bool det_has = publicly_known
                                 ? unit_from_hash(h) < 0.5
                                 : unit_from_hash(h) < 0.005;
        if (det_has) out.push_back(farm->host_address(s, i));
      }
    }
  }
  dedup_addresses(out);
  return out;
}

std::vector<Ipv6> NewSourceEvaluator::collect_passive(const ZoneDb& zones,
                                                      ScanDate d) const {
  std::vector<Ipv6> out = collect_ns_mx(zones, d);
  auto ark = collect_ark(d);
  out.insert(out.end(), ark.begin(), ark.end());
  auto det = collect_det(d);
  out.insert(out.end(), det.begin(), det.end());
  dedup_addresses(out);
  return out;
}

NewSourceEvaluator::SourceReport NewSourceEvaluator::evaluate(
    const std::string& name, std::vector<Ipv6> candidates,
    bool rescan_responsive_only) const {
  SourceReport rep;
  rep.name = name;
  AddrBatch batch{std::span<const Ipv6>(candidates)};
  batch.sort_unique();
  rep.raw = batch.size();

  // Filter 1: only genuinely new candidates (not already service input).
  // The unresponsive-pool source is exempt: it *is* old input. One merge
  // pass against the sorted input set instead of a hash probe per
  // candidate (the input DB is the 10^8-scale object here).
  if (!rescan_responsive_only) {
    AddrBatch input{std::span<const Ipv6>(service_->input().addresses())};
    input.sort_unique();
    batch.subtract_sorted(input);
  }
  rep.new_candidates = batch.size();

  // Filter 2: known aliased prefixes + blocklist — two merge passes over
  // the sorted candidates (both filters drop covered addresses, so the
  // sequence equals the erase_if over the union).
  batch.filter_covered(service_->aliased().prefixes());
  batch.filter_covered(service_->blocklist().prefixes());
  batch.copy_to(candidates);
  rep.non_aliased = candidates.size();
  rep.candidate_ases =
      AsDistribution::of(world_->rib(), candidates).as_count();

  // Multi-round, multi-protocol scan with GFW cleaning.
  Zmap6 zmap(cfg_.scanner);
  GfwFilter gfw;
  std::unordered_map<Ipv6, ProtoMask, Ipv6Hasher> responsive;
  std::vector<Ipv6> round_targets = std::move(candidates);
  for (int round = 0; round < cfg_.eval_rounds; ++round) {
    const ScanDate date{cfg_.first_eval_scan + round};
    for (const ScanResult& result :
         zmap.scan(*world_, round_targets, kAllProtoMask, date)) {
      const Proto p = result.proto;
      if (p == Proto::Udp53) {
        for (const auto& rec : gfw.filter_scan(result))
          responsive[rec.target] |= proto_bit(p);
        continue;
      }
      for (const auto& rec : result.responsive)
        responsive[rec.target] |= proto_bit(p);
    }
    if (rescan_responsive_only && round == 0) {
      // Ethics tweak for the huge unresponsive pool: later rounds only
      // revisit what answered in round one.
      std::vector<Ipv6> survivors;
      survivors.reserve(responsive.size());
      // sixdust-lint: allow(det-unordered-iter) — collection; sorted next.
      for (const auto& [a, m] : responsive) survivors.push_back(a);
      std::sort(survivors.begin(), survivors.end());
      round_targets = std::move(survivors);
    }
  }

  // GFW accounting: injected-only addresses never made it into
  // `responsive` (filter_scan dropped them), count them separately.
  rep.gfw_filtered = gfw.tainted_count();

  rep.responsive.reserve(responsive.size());
  // sixdust-lint: allow(det-unordered-iter) — per-proto tallies are a
  // commutative fold and rep.responsive is sorted right below.
  for (const auto& [a, mask] : responsive) {
    rep.responsive.push_back(a);
    for (Proto p : kAllProtos)
      if (mask_has(mask, p)) ++rep.responsive_per_proto[proto_index(p)];
  }
  std::sort(rep.responsive.begin(), rep.responsive.end());
  rep.responsive_dist = AsDistribution::of(world_->rib(), rep.responsive);
  return rep;
}

}  // namespace sixdust
