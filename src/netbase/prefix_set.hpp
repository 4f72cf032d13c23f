#pragma once

#include <optional>
#include <vector>

#include "netbase/frozen_lpm.hpp"

namespace sixdust {

/// An immutable set of prefixes with coverage queries — used for
/// blocklists, the aliased-prefix filter and CDN alias coverage. An
/// address is "covered" when any member prefix contains it. The set is
/// built once from its members (in any order, repeats collapse) and is
/// safe to query from any number of threads concurrently.
class PrefixSet {
 public:
  PrefixSet() = default;
  explicit PrefixSet(const std::vector<Prefix>& prefixes);

  [[nodiscard]] bool contains_exact(const Prefix& p) const;
  [[nodiscard]] bool covers(const Ipv6& a) const { return lpm_.covers(a); }
  /// Most-specific covering prefix, if any.
  [[nodiscard]] std::optional<Prefix> covering(const Ipv6& a) const;
  [[nodiscard]] std::size_t size() const { return lpm_.size(); }
  [[nodiscard]] bool empty() const { return lpm_.empty(); }
  /// The members in lexicographic (base, len) order.
  [[nodiscard]] const std::vector<Prefix>& prefixes() const {
    return lpm_.prefixes();
  }

 private:
  FrozenLpm<char> lpm_;
};

}  // namespace sixdust
