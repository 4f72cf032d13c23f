// Differential tests for the LPM layer: FrozenLpm, built from a
// (prefix, value) column, against a naive scan-all reference, over
// deliberately nasty sets — nested and overlapping prefixes, the default
// route /0, aliased-style /64 bands, /128 host routes and repeated
// prefixes. Also pins the build contract: the table is in lexicographic
// (base, len) order, independent of column order, and a repeated prefix
// keeps its last value.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "netbase/frozen_lpm.hpp"
#include "netbase/prefix_set.hpp"
#include "netbase/rng.hpp"

namespace sixdust {
namespace {

Ipv6 random_addr(Rng& rng) { return Ipv6::from_words(rng.next(), rng.next()); }

struct NaiveRef {
  std::vector<std::pair<Prefix, int>> entries;

  void insert(const Prefix& p, int v) {
    for (auto& [q, qv] : entries) {
      if (q == p) {
        qv = v;
        return;
      }
    }
    entries.emplace_back(p, v);
  }

  struct Match {
    Prefix prefix;
    int value;
  };

  [[nodiscard]] std::optional<Match> longest_match(const Ipv6& a) const {
    std::optional<Match> best;
    for (const auto& [p, v] : entries) {
      if (p.contains(a) && (!best || p.len() > best->prefix.len()))
        best = Match{p, v};
    }
    return best;
  }
};

/// A nested/overlapping prefix population: top-level allocations, a chain
/// of more-specifics inside some of them (including odd, non-nibble
/// lengths), /64 bands, /128 host routes, and optionally the default
/// route.
std::vector<Prefix> nasty_prefixes(Rng& rng, int tops, bool with_default) {
  std::vector<Prefix> out;
  if (with_default) out.push_back(Prefix::make(Ipv6{}, 0));
  for (int i = 0; i < tops; ++i) {
    const Prefix top = Prefix::make(random_addr(rng), 16 + 4 * rng.below(5));
    out.push_back(top);
    // Nested chain: each step refines the previous prefix.
    Prefix cur = top;
    while (cur.len() < 64 && rng.below(3) != 0) {
      static constexpr int kSteps[] = {1, 2, 3, 4, 7, 8, 13, 16};
      const int len =
          std::min(64, cur.len() + kSteps[rng.below(std::size(kSteps))]);
      cur = Prefix::make(cur.random_address(rng.next()), len);
      out.push_back(cur);
    }
    if (rng.below(2) == 0) {
      out.push_back(Prefix::make(cur.random_address(rng.next()), 64));
      out.push_back(Prefix::make(cur.random_address(rng.next()), 128));
    }
  }
  return out;
}

class LpmDifferential : public ::testing::TestWithParam<int> {};

// The name predates the column builder; it is kept so test history
// carries over.
TEST_P(LpmDifferential, TrieAndFrozenMatchNaive) {
  Rng rng(7100 + static_cast<std::uint64_t>(GetParam()));
  const auto prefixes =
      nasty_prefixes(rng, GetParam(), /*with_default=*/GetParam() % 2 == 0);

  std::vector<std::pair<Prefix, int>> column;
  NaiveRef naive;
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    column.emplace_back(prefixes[i], static_cast<int>(i));
  // Repeat a few prefixes with new values: the last one must win.
  for (int i = 0; i < 1 + GetParam() / 8; ++i)
    column.emplace_back(prefixes[rng.below(prefixes.size())], 1000 + i);
  for (const auto& [p, v] : column) naive.insert(p, v);
  const FrozenLpm<int> frozen{column};
  ASSERT_EQ(frozen.size(), naive.entries.size());

  for (int i = 0; i < 600; ++i) {
    Ipv6 probe = random_addr(rng);
    if (i % 3 != 0)
      probe = prefixes[rng.below(prefixes.size())].random_address(rng.next());
    if (i == 1) probe = Ipv6{};                              // ::
    if (i == 2) probe = Ipv6::from_words(~0ULL, ~0ULL);      // ff..ff
    const auto want = naive.longest_match(probe);

    const auto got = frozen.longest_match(probe);
    ASSERT_EQ(got.has_value(), want.has_value()) << probe.str();
    if (want) {
      EXPECT_EQ(*got->value, want->value) << probe.str();
      EXPECT_EQ(got->prefix, want->prefix) << probe.str();
    }

    // The value-only fast path and the coverage predicate agree.
    const int* lf = frozen.lookup(probe);
    ASSERT_EQ(lf != nullptr, want.has_value()) << probe.str();
    if (want) {
      EXPECT_EQ(*lf, want->value) << probe.str();
    }
    EXPECT_EQ(frozen.covers(probe), want.has_value()) << probe.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, LpmDifferential,
                         ::testing::Values(1, 4, 16, 64, 200));

TEST(LpmVisitOrder, LexicographicAndInsertionOrderIndependent) {
  Rng rng(0xD157);
  const auto prefixes = nasty_prefixes(rng, 48, /*with_default=*/true);

  std::vector<std::pair<Prefix, int>> forward;
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    forward.emplace_back(prefixes[i], static_cast<int>(i));
  auto shuffled = forward;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);

  // The table is exactly the distinct prefixes in lexicographic
  // (base, len) order — the contract lookup determinism rests on.
  const FrozenLpm<int> ffwd{forward};
  const FrozenLpm<int> fshuf{shuffled};
  auto want = prefixes;
  std::sort(want.begin(), want.end(), [](const Prefix& a, const Prefix& b) {
    if (a.base() != b.base()) return a.base() < b.base();
    return a.len() < b.len();
  });
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(ffwd.prefixes(), want);

  // Tables built from both column orders are identical, entry for entry.
  EXPECT_EQ(ffwd.prefixes(), fshuf.prefixes());
  for (int i = 0; i < 300; ++i) {
    const Ipv6 probe =
        prefixes[rng.below(prefixes.size())].random_address(rng.next());
    const int* a = ffwd.lookup(probe);
    const int* b = fshuf.lookup(probe);
    ASSERT_EQ(a != nullptr, b != nullptr) << probe.str();
    if (a != nullptr) {
      EXPECT_EQ(*a, *b) << probe.str();
    }
  }
}

TEST(LpmEdgeCases, EmptyEnginesMatchNothing) {
  const FrozenLpm<int> frozen{std::vector<std::pair<Prefix, int>>{}};
  const Ipv6 a = Ipv6::from_words(0x20010db8ULL << 32, 1);
  EXPECT_FALSE(frozen.longest_match(a).has_value());
  EXPECT_EQ(frozen.lookup(a), nullptr);
  EXPECT_FALSE(frozen.covers(a));
  EXPECT_TRUE(frozen.empty());
}

TEST(LpmEdgeCases, DefaultConstructedMatchesNothing) {
  const FrozenLpm<int> frozen;
  const PrefixSet set;
  const Ipv6 probes[] = {Ipv6{}, Ipv6::from_words(~0ULL, ~0ULL),
                         Ipv6::from_words(0x20010db8ULL << 32, 1)};
  for (const Ipv6& a : probes) {
    EXPECT_FALSE(frozen.longest_match(a).has_value()) << a.str();
    EXPECT_EQ(frozen.lookup(a), nullptr) << a.str();
    EXPECT_FALSE(frozen.covers(a)) << a.str();
    EXPECT_FALSE(set.covers(a)) << a.str();
    EXPECT_FALSE(set.covering(a).has_value()) << a.str();
  }
  EXPECT_TRUE(frozen.empty());
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.prefixes().empty());
}

TEST(LpmEdgeCases, DefaultRouteCoversEverything) {
  const FrozenLpm<int> frozen{
      std::vector<std::pair<Prefix, int>>{{Prefix::make(Ipv6{}, 0), 7}}};
  const Ipv6 probes[] = {Ipv6{}, Ipv6::from_words(~0ULL, ~0ULL),
                         Ipv6::from_words(0x2a00ULL << 48, 42)};
  for (const Ipv6& a : probes) {
    ASSERT_TRUE(frozen.covers(a)) << a.str();
    EXPECT_EQ(*frozen.lookup(a), 7) << a.str();
    EXPECT_EQ(frozen.longest_match(a)->prefix.len(), 0);
  }
}

TEST(LpmEdgeCases, HostRouteAtMaxAddress) {
  const Ipv6 max = Ipv6::from_words(~0ULL, ~0ULL);
  const FrozenLpm<int> frozen{std::vector<std::pair<Prefix, int>>{
      {Prefix::make(max, 128), 1}, {Prefix::make(max, 64), 2}}};
  EXPECT_EQ(*frozen.lookup(max), 1);
  const Ipv6 below = Ipv6::from_words(~0ULL, ~0ULL - 1);
  EXPECT_EQ(*frozen.lookup(below), 2);
  const Ipv6 outside = Ipv6::from_words(~0ULL - 1, ~0ULL);
  EXPECT_FALSE(frozen.covers(outside));
}

// --- per-prefix lookup -----------------------------------------------------

Ipv6 minus_one(const Ipv6& a) {
  return Ipv6::from_words(a.lo() == 0 ? a.hi() - 1 : a.hi(), a.lo() - 1);
}

/// lookup_prefix() from the stored entries alone: nullopt when `p`
/// straddles, else the naive longest match of its addresses (nullopt
/// inside: no match). The table's value can only change where a stored
/// prefix starts or ends, so `p` resolves to one interval exactly when
/// none of those points lies in (base, last].
std::optional<std::optional<int>> naive_lookup_prefix(const NaiveRef& naive,
                                                      const Prefix& p) {
  const Ipv6 max = Ipv6::from_words(~0ULL, ~0ULL);
  const auto inside = [&](const Ipv6& b) {
    return p.base() < b && b <= p.last();
  };
  for (const auto& [q, v] : naive.entries)
    if (inside(q.base()) || (q.last() != max && inside(q.last().plus(1))))
      return std::nullopt;
  const auto m = naive.longest_match(p.base());
  return m ? std::optional<int>(m->value) : std::nullopt;
}

/// Queries around every stored prefix: itself, its parents, its
/// neighbours of the same length (one ending at base - 1, one starting
/// at last + 1), host routes on both sides of each boundary, and the
/// short prefixes holding base - 1, which end at base - 1 or reach over
/// the boundary depending on alignment.
std::vector<Prefix> queries_around(const std::vector<Prefix>& stored) {
  const Ipv6 max = Ipv6::from_words(~0ULL, ~0ULL);
  std::vector<Prefix> out = {Prefix::make(Ipv6{}, 0), Prefix::make(max, 128)};
  for (const Prefix& q : stored) {
    out.push_back(q);
    for (int up : {1, 4, 8})
      if (q.len() >= up) out.push_back(Prefix::make(q.base(), q.len() - up));
    for (const Ipv6& b : {q.base(), q.last().plus(1)}) {
      if (b == Ipv6{}) continue;  // no address below ::
      const Ipv6 before = minus_one(b);
      out.push_back(Prefix::make(before, q.len()));
      for (int len : {96, 120, 124, 127, 128})
        out.push_back(Prefix::make(before, len));
      out.push_back(Prefix::make(b, 128));
    }
  }
  return out;
}

void expect_prefix_lookups_match(
    const std::vector<std::pair<Prefix, int>>& column,
    const std::vector<Prefix>& queries) {
  NaiveRef naive;
  for (const auto& [p, v] : column) naive.insert(p, v);
  const FrozenLpm<int> frozen{column};
  for (const Prefix& p : queries) {
    const auto want = naive_lookup_prefix(naive, p);
    const auto got = frozen.lookup_prefix(p);
    ASSERT_EQ(got.has_value(), want.has_value()) << p.str();
    if (!want) continue;
    ASSERT_EQ(*got != nullptr, want->has_value()) << p.str();
    if (*got != nullptr) {
      EXPECT_EQ(**got, **want) << p.str();
    }
    // A whole prefix resolves like each of its addresses.
    for (const Ipv6& a : {p.base(), p.last(), p.random_address(7)})
      EXPECT_EQ(*got, frozen.lookup(a)) << p.str() << " at " << a.str();
  }
}

TEST(LpmPrefixLookup, MatchesNaiveReference) {
  for (int tops : {1, 4, 16, 64}) {
    Rng rng(7300 + static_cast<std::uint64_t>(tops));
    const auto prefixes = nasty_prefixes(rng, tops, tops % 2 == 0);
    std::vector<std::pair<Prefix, int>> column;
    for (std::size_t i = 0; i < prefixes.size(); ++i)
      column.emplace_back(prefixes[i], static_cast<int>(i));
    std::vector<Prefix> queries = queries_around(prefixes);
    for (int i = 0; i < 300; ++i)
      queries.push_back(Prefix::make(random_addr(rng),
                                     static_cast<int>(rng.below(129))));
    expect_prefix_lookups_match(column, queries);
  }
}

TEST(LpmPrefixLookup, EdgeCases) {
  const Ipv6 max = Ipv6::from_words(~0ULL, ~0ULL);
  const Prefix outer = pfx("2001:db8::/32");
  const Prefix inner = pfx("2001:db8::/48");  // shares outer's base
  const Prefix deep = pfx("2001:db8:1:1::/64");
  const Prefix host = Prefix::make(max, 128);
  const std::vector<std::pair<Prefix, int>> column = {
      {outer, 1}, {inner, 2}, {deep, 3}, {host, 4}};
  const FrozenLpm<int> frozen{column};
  // The value a whole prefix resolves to (-1: no match), or nullopt when
  // it straddles a boundary.
  const auto whole = [](const FrozenLpm<int>& t,
                        const Prefix& p) -> std::optional<int> {
    const auto v = t.lookup_prefix(p);
    if (!v) return std::nullopt;
    return *v == nullptr ? -1 : **v;
  };
  // Nested prefixes sharing a base: the inner one resolves whole, the
  // outer one straddles its more-specifics.
  EXPECT_EQ(whole(frozen, inner), 2);
  EXPECT_EQ(whole(frozen, outer), std::nullopt);
  // The /64 just below `deep` ends at boundary - 1; the /63 holding both
  // reaches over the boundary; the /64 just above starts at the boundary
  // where `deep` hands back to `outer`.
  EXPECT_EQ(whole(frozen, pfx("2001:db8:1::/64")), 1);
  EXPECT_EQ(whole(frozen, pfx("2001:db8:1::/63")), std::nullopt);
  EXPECT_EQ(whole(frozen, pfx("2001:db8:1:2::/64")), 1);
  EXPECT_EQ(whole(frozen, deep), 3);
  // Uncovered space resolves whole to no match.
  EXPECT_EQ(whole(frozen, pfx("2001:db9::/32")), -1);
  // ::/0 holds every boundary; the /128 at the all-ones address is one.
  EXPECT_EQ(whole(frozen, Prefix::make(Ipv6{}, 0)), std::nullopt);
  EXPECT_EQ(whole(frozen, host), 4);
  EXPECT_EQ(whole(frozen, Prefix::make(max, 127)), std::nullopt);
  expect_prefix_lookups_match(column, queries_around(frozen.prefixes()));

  // An empty table resolves everything, ::/0 included, to no match.
  const FrozenLpm<int> empty;
  for (const Prefix& p : {Prefix::make(Ipv6{}, 0), host, outer})
    EXPECT_EQ(whole(empty, p), -1) << p.str();
  // A default route alone leaves no boundary inside ::/0.
  const FrozenLpm<int> all{
      std::vector<std::pair<Prefix, int>>{{Prefix::make(Ipv6{}, 0), 9}}};
  EXPECT_EQ(whole(all, Prefix::make(Ipv6{}, 0)), 9);
  EXPECT_EQ(whole(all, host), 9);
}

}  // namespace
}  // namespace sixdust
