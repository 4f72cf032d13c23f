#include "tga/entropyip.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "core/parallel.hpp"
#include "netbase/hash.hpp"
#include "netbase/rng.hpp"

namespace sixdust {

std::array<double, 32> EntropyIp::nibble_entropy(std::span<const Ipv6> seeds) {
  std::array<double, 32> entropy{};
  if (seeds.empty()) return entropy;
  // Columnar histograms: one shift-and-mask scan per position instead of
  // 32 nibble() calls per seed.
  const AddrBatch batch(seeds);
  for (int pos = 0; pos < 32; ++pos) {
    std::array<std::uint32_t, 16> counts{};
    batch.nibble_histogram(pos, counts);
    double h = 0;
    for (std::uint32_t c : counts) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / static_cast<double>(seeds.size());
      h -= p * std::log2(p);
    }
    entropy[static_cast<std::size_t>(pos)] = h;
  }
  return entropy;
}

std::vector<EntropyIp::Segment> EntropyIp::segment(
    std::span<const Ipv6> seeds) const {
  std::vector<Segment> segments;
  if (seeds.empty()) return segments;
  const auto entropy = nibble_entropy(seeds);
  const AddrBatch batch(seeds);
  std::vector<std::uint64_t> field(seeds.size());

  // A segment's values are 64-bit folds of its nibbles, so a segment
  // spans at most 16 nibbles: a wider run of similar entropy is cut.
  constexpr int kMaxNibbles = 16;
  int begin = 0;
  for (int pos = 1; pos <= 32; ++pos) {
    const bool split =
        pos == 32 || pos - begin == kMaxNibbles ||
        std::abs(entropy[static_cast<std::size_t>(pos)] -
                 entropy[static_cast<std::size_t>(pos - 1)]) >
            cfg_.segment_split;
    if (!split) continue;
    Segment seg;
    seg.begin = begin;
    seg.end = pos;
    double sum = 0;
    for (int i = begin; i < pos; ++i) sum += entropy[static_cast<std::size_t>(i)];
    seg.mean_entropy = sum / (pos - begin);

    // Classify by value diversity within the segment (batch field scan).
    std::unordered_map<std::uint64_t, std::size_t> values;
    batch.nibble_field(seg.begin, seg.end, field.data());
    for (const std::uint64_t v : field) ++values[v];
    if (values.size() == 1) {
      seg.kind = Segment::Kind::Constant;
    } else if (static_cast<double>(values.size()) <=
               cfg_.dict_max_distinct * static_cast<double>(seeds.size())) {
      seg.kind = Segment::Kind::Dict;
    } else if (seg.mean_entropy > 3.2) {
      seg.kind = Segment::Kind::Random;
    } else {
      seg.kind = Segment::Kind::Range;
    }
    segments.push_back(seg);
    begin = pos;
  }
  return segments;
}

std::vector<Ipv6> EntropyIp::generate(std::span<const Ipv6> seeds,
                                      std::size_t budget) const {
  std::vector<Ipv6> out;
  if (seeds.empty() || budget == 0) return out;

  // Cluster by operator prefix when the seed set spans several networks
  // (the original Entropy/IP models one prefix at a time); recurse into
  // each sufficiently large cluster with its budget share. The final
  // sorted-unique-truncated output depends only on the *set* of cluster
  // outputs, so clusters run in parallel in first-encounter order.
  if (cfg_.cluster_nibbles > 0) {
    const AddrBatch batch(seeds);
    std::vector<std::uint64_t> key(seeds.size());
    batch.nibble_field(std::max(0, cfg_.cluster_nibbles - 16),
                       cfg_.cluster_nibbles, key.data());
    std::unordered_map<std::uint64_t, std::size_t> cluster_index;
    std::vector<std::vector<Ipv6>> clusters;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const auto [it, inserted] =
          cluster_index.try_emplace(key[i], clusters.size());
      if (inserted) clusters.emplace_back();
      clusters[it->second].push_back(seeds[i]);
    }
    if (clusters.size() > 1) {
      std::size_t usable = 0;
      for (const auto& members : clusters)
        if (members.size() >= cfg_.min_cluster) usable += members.size();
      if (usable == 0) return note_generated(seeds, std::move(out));
      Config flat = cfg_;
      flat.cluster_nibbles = 0;  // no re-clustering inside a cluster
      EntropyIp inner(flat);
      inner.set_metrics(nullptr);  // inner calls are part of this one
      const auto parts = ordered_map<std::vector<Ipv6>>(
          pool_, clusters.size(), [&](std::size_t c) {
            const auto& members = clusters[c];
            if (members.size() < cfg_.min_cluster) return std::vector<Ipv6>{};
            const std::size_t share = budget * members.size() / usable;
            return inner.generate(members, share);
          });
      for (const auto& part : parts)
        out.insert(out.end(), part.begin(), part.end());
      dedup_addresses(out, pool_, metrics_);
      if (out.size() > budget) out.resize(budget);
      return note_generated(seeds, std::move(out));
    }
  }

  const auto segments = segment(seeds);

  // Per-segment statistics: value dictionary with frequencies, numeric
  // range, and a first-order dependency on the previous segment's value
  // (value pairs observed together in a seed). Segments are independent
  // (segment si reads the fields of si and si-1 only), so the model
  // builds fan out over the pool.
  struct Model {
    std::vector<std::pair<std::uint64_t, std::size_t>> dict;  // value,count
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> after;
  };

  const AddrBatch batch(seeds);
  std::vector<std::vector<std::uint64_t>> seg_values(segments.size());
  for (std::size_t si = 0; si < segments.size(); ++si) {
    seg_values[si].resize(seeds.size());
    batch.nibble_field(segments[si].begin, segments[si].end,
                       seg_values[si].data());
  }
  auto models = ordered_map<Model>(pool_, segments.size(), [&](std::size_t si) {
    Model model;
    std::map<std::uint64_t, std::size_t> counts;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const std::uint64_t v = seg_values[si][k];
      ++counts[v];
      if (v < model.min) model.min = v;
      if (v > model.max) model.max = v;
      if (si > 0) model.after[seg_values[si - 1][k]].push_back(v);
    }
    model.dict.assign(counts.begin(), counts.end());
    return model;
  });

  Rng rng(hash_combine(cfg_.seed, seeds.size()));
  std::size_t attempts = 0;
  out.reserve(budget);
  while (out.size() < budget && attempts < budget * 3) {
    ++attempts;
    Ipv6 cand;
    std::uint64_t prev = 0;
    for (std::size_t si = 0; si < segments.size(); ++si) {
      const auto& seg = segments[si];
      const auto& model = models[si];
      std::uint64_t v = 0;
      switch (seg.kind) {
        case Segment::Kind::Constant:
          v = model.dict.front().first;
          break;
        case Segment::Kind::Dict: {
          // Prefer values seen after the previous segment's value (the
          // first-order dependency); fall back to the global dictionary.
          auto it = model.after.find(prev);
          if (si > 0 && it != model.after.end() && rng.chance(0.8)) {
            v = it->second[rng.below(it->second.size())];
          } else {
            std::size_t total = 0;
            for (const auto& [val, c] : model.dict) total += c;
            std::uint64_t pick = rng.below(total);
            for (const auto& [val, c] : model.dict) {
              if (pick < c) {
                v = val;
                break;
              }
              pick -= c;
            }
          }
          break;
        }
        case Segment::Kind::Range:
          v = rng.between(model.min, model.max);
          break;
        case Segment::Kind::Random: {
          const int nibbles = seg.end - seg.begin;
          v = nibbles >= 16 ? rng.next()
                            : rng.below(std::uint64_t{1} << (4 * nibbles));
          break;
        }
      }
      for (int i = seg.begin; i < seg.end; ++i)
        cand.set_nibble(i, static_cast<unsigned>(
                               v >> (4 * (seg.end - 1 - i)) & 0xf));
      prev = v;
    }
    out.push_back(cand);
  }
  dedup_addresses(out, pool_, metrics_);
  if (out.size() > budget) out.resize(budget);
  return note_generated(seeds, std::move(out));
}

}  // namespace sixdust
