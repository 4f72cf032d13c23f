#include "asdb/rib.hpp"

namespace sixdust {

Rib::Rib(std::vector<Route> routes) : routes_(std::move(routes)) {
  std::vector<std::pair<Prefix, Asn>> column;
  column.reserve(routes_.size());
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    column.emplace_back(routes_[i].prefix, routes_[i].origin);
    by_as_[routes_[i].origin].push_back(i);
  }
  lpm_ = FrozenLpm<Asn>(std::move(column));
}

std::optional<Asn> Rib::origin(const Ipv6& a) const {
  const Asn* v = lpm_.lookup(a);
  if (v == nullptr) return std::nullopt;
  return *v;
}

std::optional<Rib::Route> Rib::route(const Ipv6& a) const {
  auto m = lpm_.longest_match(a);
  if (!m) return std::nullopt;
  return Route{m->prefix, *m->value};
}

std::vector<Prefix> Rib::prefixes_of(Asn asn) const {
  std::vector<Prefix> out;
  auto it = by_as_.find(asn);
  if (it == by_as_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t i : it->second) out.push_back(routes_[i].prefix);
  return out;
}

u128 Rib::announced_space(Asn asn) const {
  u128 total = 0;
  auto it = by_as_.find(asn);
  if (it == by_as_.end()) return total;
  for (std::size_t i : it->second) total += routes_[i].prefix.size();
  return total;
}

}  // namespace sixdust
