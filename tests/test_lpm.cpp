// Differential tests for the LPM layer: the compressed PrefixTrie and the
// FrozenLpm snapshot against a naive scan-all reference, over deliberately
// nasty sets — nested and overlapping prefixes, the default route /0,
// aliased-style /64 bands, and /128 host routes. Also pins the visit
// contract both engines depend on: lexicographic (base, len) order,
// independent of insertion order.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "netbase/frozen_lpm.hpp"
#include "netbase/prefix_trie.hpp"
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

TEST_P(LpmDifferential, TrieAndFrozenMatchNaive) {
  Rng rng(7100 + static_cast<std::uint64_t>(GetParam()));
  const auto prefixes =
      nasty_prefixes(rng, GetParam(), /*with_default=*/GetParam() % 2 == 0);

  PrefixTrie<int> trie;
  NaiveRef naive;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    trie.insert(prefixes[i], static_cast<int>(i));
    naive.insert(prefixes[i], static_cast<int>(i));
  }
  const FrozenLpm<int> frozen{trie};
  ASSERT_EQ(trie.size(), frozen.size());

  for (int i = 0; i < 600; ++i) {
    Ipv6 probe = random_addr(rng);
    if (i % 3 != 0)
      probe = prefixes[rng.below(prefixes.size())].random_address(rng.next());
    if (i == 1) probe = Ipv6{};                              // ::
    if (i == 2) probe = Ipv6::from_words(~0ULL, ~0ULL);      // ff..ff
    const auto want = naive.longest_match(probe);

    const auto got_t = trie.longest_match(probe);
    const auto got_f = frozen.longest_match(probe);
    ASSERT_EQ(got_t.has_value(), want.has_value()) << probe.str();
    ASSERT_EQ(got_f.has_value(), want.has_value()) << probe.str();
    if (want) {
      EXPECT_EQ(*got_t->value, want->value) << probe.str();
      EXPECT_EQ(got_t->prefix, want->prefix) << probe.str();
      EXPECT_EQ(*got_f->value, want->value) << probe.str();
      EXPECT_EQ(got_f->prefix, want->prefix) << probe.str();
    }

    // The value-only fast path and the coverage predicate agree.
    const int* lt = trie.lookup(probe);
    const int* lf = frozen.lookup(probe);
    ASSERT_EQ(lt != nullptr, want.has_value()) << probe.str();
    ASSERT_EQ(lf != nullptr, want.has_value()) << probe.str();
    if (want) {
      EXPECT_EQ(*lt, want->value) << probe.str();
      EXPECT_EQ(*lf, want->value) << probe.str();
    }
    EXPECT_EQ(trie.covers(probe), want.has_value()) << probe.str();
    EXPECT_EQ(frozen.covers(probe), want.has_value()) << probe.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, LpmDifferential,
                         ::testing::Values(1, 4, 16, 64, 200));

TEST(LpmVisitOrder, LexicographicAndInsertionOrderIndependent) {
  Rng rng(0xD157);
  const auto prefixes = nasty_prefixes(rng, 48, /*with_default=*/true);

  PrefixTrie<int> forward;
  PrefixTrie<int> shuffled;
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    forward.insert(prefixes[i], static_cast<int>(i));
  std::vector<std::size_t> order(prefixes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (const std::size_t i : order)
    shuffled.insert(prefixes[i], static_cast<int>(i));

  std::vector<std::pair<Prefix, int>> fwd;
  forward.visit([&](const Prefix& p, const int& v) { fwd.emplace_back(p, v); });

  // Visit order is exactly lexicographic (base, len) — the contract the
  // frozen snapshot's determinism rests on.
  auto sorted = fwd;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.first.base() != b.first.base())
      return a.first.base() < b.first.base();
    return a.first.len() < b.first.len();
  });
  EXPECT_EQ(fwd, sorted);

  std::vector<std::pair<Prefix, int>> shuf;
  shuffled.visit(
      [&](const Prefix& p, const int& v) { shuf.emplace_back(p, v); });
  EXPECT_EQ(fwd, shuf);

  // Snapshots of both tries are identical, entry for entry.
  const FrozenLpm<int> ffwd{forward};
  const FrozenLpm<int> fshuf{shuffled};
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
  const PrefixTrie<int> trie;
  const FrozenLpm<int> frozen{trie};
  const Ipv6 a = Ipv6::from_words(0x20010db8ULL << 32, 1);
  EXPECT_FALSE(trie.longest_match(a).has_value());
  EXPECT_FALSE(frozen.longest_match(a).has_value());
  EXPECT_EQ(trie.lookup(a), nullptr);
  EXPECT_EQ(frozen.lookup(a), nullptr);
  EXPECT_FALSE(trie.covers(a));
  EXPECT_FALSE(frozen.covers(a));
  EXPECT_TRUE(frozen.empty());
}

TEST(LpmEdgeCases, DefaultRouteCoversEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::make(Ipv6{}, 0), 7);
  const FrozenLpm<int> frozen{trie};
  const Ipv6 probes[] = {Ipv6{}, Ipv6::from_words(~0ULL, ~0ULL),
                         Ipv6::from_words(0x2a00ULL << 48, 42)};
  for (const Ipv6& a : probes) {
    ASSERT_TRUE(trie.covers(a)) << a.str();
    ASSERT_TRUE(frozen.covers(a)) << a.str();
    EXPECT_EQ(*trie.lookup(a), 7) << a.str();
    EXPECT_EQ(*frozen.lookup(a), 7) << a.str();
    EXPECT_EQ(trie.longest_match(a)->prefix.len(), 0);
    EXPECT_EQ(frozen.longest_match(a)->prefix.len(), 0);
  }
}

TEST(LpmEdgeCases, HostRouteAtMaxAddress) {
  PrefixTrie<int> trie;
  const Ipv6 max = Ipv6::from_words(~0ULL, ~0ULL);
  trie.insert(Prefix::make(max, 128), 1);
  trie.insert(Prefix::make(max, 64), 2);
  const FrozenLpm<int> frozen{trie};
  EXPECT_EQ(*trie.lookup(max), 1);
  EXPECT_EQ(*frozen.lookup(max), 1);
  const Ipv6 below = Ipv6::from_words(~0ULL, ~0ULL - 1);
  EXPECT_EQ(*trie.lookup(below), 2);
  EXPECT_EQ(*frozen.lookup(below), 2);
  const Ipv6 outside = Ipv6::from_words(~0ULL - 1, ~0ULL);
  EXPECT_FALSE(trie.covers(outside));
  EXPECT_FALSE(frozen.covers(outside));
}

}  // namespace
}  // namespace sixdust
