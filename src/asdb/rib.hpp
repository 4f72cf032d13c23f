#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "asdb/asn.hpp"
#include "netbase/frozen_lpm.hpp"
#include "netbase/u128.hpp"

namespace sixdust {

/// Routing Information Base: the set of announced prefixes with origin
/// ASes. Stands in for the RIPE RIS rrc00 dump the paper uses to relate
/// hitlist coverage to announced space (Sec. 4.1, Fig. 6).
///
/// Built once from the full route column and immutable afterwards, so any
/// number of threads may query it concurrently.
class Rib {
 public:
  struct Route {
    Prefix prefix;
    Asn origin = kAsnNone;
  };

  /// `routes` in announcement order. routes() keeps every announcement; a
  /// prefix announced twice resolves to its last origin.
  explicit Rib(std::vector<Route> routes);

  /// Origin AS by longest-prefix match.
  [[nodiscard]] std::optional<Asn> origin(const Ipv6& a) const;

  /// Most-specific covering announcement.
  [[nodiscard]] std::optional<Route> route(const Ipv6& a) const;

  [[nodiscard]] const std::vector<Route>& routes() const { return routes_; }
  /// The distinct announced prefixes in lexicographic (base, len) order.
  [[nodiscard]] const std::vector<Prefix>& prefixes() const {
    return lpm_.prefixes();
  }
  [[nodiscard]] std::size_t prefix_count() const { return routes_.size(); }

  /// Number of distinct origin ASes.
  [[nodiscard]] std::size_t as_count() const { return by_as_.size(); }

  /// All prefixes originated by `asn`.
  [[nodiscard]] std::vector<Prefix> prefixes_of(Asn asn) const;

  /// Total announced address space of `asn`. The world builder never
  /// announces overlapping prefixes for the same AS, so a plain sum is
  /// exact.
  [[nodiscard]] u128 announced_space(Asn asn) const;

 private:
  FrozenLpm<Asn> lpm_;
  std::vector<Route> routes_;
  std::unordered_map<Asn, std::vector<std::size_t>> by_as_;
};

}  // namespace sixdust
