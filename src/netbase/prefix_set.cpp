#include "netbase/prefix_set.hpp"

#include <algorithm>

namespace sixdust {

namespace {

std::vector<std::pair<Prefix, char>> members(
    const std::vector<Prefix>& prefixes) {
  std::vector<std::pair<Prefix, char>> out;
  out.reserve(prefixes.size());
  for (const auto& p : prefixes) out.emplace_back(p, 1);
  return out;
}

}  // namespace

PrefixSet::PrefixSet(const std::vector<Prefix>& prefixes)
    : lpm_(members(prefixes)) {}

bool PrefixSet::contains_exact(const Prefix& p) const {
  return std::binary_search(prefixes().begin(), prefixes().end(), p);
}

std::optional<Prefix> PrefixSet::covering(const Ipv6& a) const {
  auto m = lpm_.longest_match(a);
  if (!m) return std::nullopt;
  return m->prefix;
}

}  // namespace sixdust
