// Property suites over the stability calculus: algebraic identities that
// must hold for EVERY graph, checked on random and exhaustive families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "equilibria/convexity.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

using testing::random_connected;

TEST(StabilityPropertyTest, AdditionAndDeletionAreInverse) {
  // For any non-edge (u,v): the saving from adding it equals the increase
  // from deleting it in the augmented graph.
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 150; ++trial) {
    const graph g = random_connected(random);
    for (const auto& [u, v] : g.non_edges()) {
      const graph augmented = g.with_edge(u, v);
      ASSERT_EQ(edge_addition_decrease(g, u, v),
                edge_deletion_increase(augmented, u, v))
          << to_string(g);
    }
  }
}

TEST(StabilityPropertyTest, DeltasAreNonNegative) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 100; ++trial) {
    const graph g = random_connected(random);
    for (const auto& [u, v] : g.edges()) {
      ASSERT_GE(edge_deletion_increase(g, u, v), 1);  // v moves 1 -> >= 2
    }
    for (const auto& [u, v] : g.non_edges()) {
      ASSERT_GE(edge_addition_decrease(g, u, v), 1);  // v moves >= 2 -> 1
    }
  }
}

TEST(StabilityPropertyTest, WindowIsIsomorphismInvariant) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 80; ++trial) {
    const graph g = random_connected(random, 4, 9);
    std::vector<int> perm(static_cast<std::size_t>(g.order()));
    std::iota(perm.begin(), perm.end(), 0);
    random.shuffle(std::span<int>(perm));
    const graph h = g.permuted(perm);

    ASSERT_EQ(compute_stability_record(g), compute_stability_record(h))
        << to_string(g);
  }
}

TEST(StabilityPropertyTest, BundleIncreaseIsMonotone) {
  // Severing more links never decreases the distance-cost increase.
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 100; ++trial) {
    const graph g = random_connected(random, 4, 8);
    const int i = static_cast<int>(
        random.below(static_cast<std::uint64_t>(g.order())));
    const std::uint64_t nbrs = g.neighbors(i);
    std::uint64_t small = 0;
    std::uint64_t large = 0;
    for_each_bit(nbrs, [&](int w) {
      const bool in_small = random.bernoulli(0.4);
      if (in_small) small |= bit(w);
      if (in_small || random.bernoulli(0.5)) large |= bit(w);
    });
    ASSERT_LE(bundle_deletion_increase(g, i, small),
              bundle_deletion_increase(g, i, large))
        << to_string(g);
  }
}

TEST(StabilityPropertyTest, ViolationWitnessIsConsistent) {
  // Whenever find_stability_violation reports a move, applying it must
  // actually improve the named player (Definition 3 semantics).
  rng random = testing::seeded_rng();
  int witnessed = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const graph g = random_connected(random, 4, 9);
    const double alpha = 0.5 + 6.0 * random.uniform_real();
    const auto violation = find_stability_violation(g, alpha);
    ASSERT_EQ(violation.has_value(), !is_pairwise_stable(g, alpha));
    if (!violation) continue;
    ++witnessed;
    if (violation->type == stability_violation::kind::severance) {
      // The named endpoint strictly gains: alpha > its increase.
      ASSERT_GT(alpha, static_cast<double>(edge_deletion_increase(
                           g, violation->u, violation->v)));
    } else if (violation->type == stability_violation::kind::addition) {
      const auto dec_u = static_cast<double>(
          edge_addition_decrease(g, violation->u, violation->v));
      const auto dec_v = static_cast<double>(
          edge_addition_decrease(g, violation->v, violation->u));
      ASSERT_TRUE((dec_u > alpha && dec_v >= alpha) ||
                  (dec_v > alpha && dec_u >= alpha));
    }
  }
  EXPECT_GT(witnessed, 20);
}

TEST(StabilityPropertyTest, StableSetShrinksToTreesForHugeAlpha) {
  // For alpha > n^2 every pairwise stable graph is a tree (the paper's
  // Section 5 note: "all equilibrium networks are trees for alpha > n^2").
  const int n = 7;
  const double alpha = n * n + 0.5;
  for_each_graph(
      n,
      [&](const graph& g) {
        if (is_pairwise_stable(g, alpha)) {
          ASSERT_TRUE(is_tree(g)) << to_string(g);
        }
      },
      {.connected_only = true});
}

TEST(StabilityPropertyTest, EveryConnectedGraphStableSomewhereOrNowhere) {
  // Dichotomy check over all connected 6-vertex graphs: the stability
  // window either admits some alpha (interior or boundary tie) and then a
  // probe inside verifies, or no probe on a fine grid finds stability.
  for_each_graph(
      6,
      [&](const graph& g) {
        const bool somewhere = !compute_stability_record(g).empty();
        bool found = false;
        for (double alpha = 0.25; alpha <= 40.0 && !found; alpha += 0.25) {
          found = is_pairwise_stable(g, alpha);
        }
        ASSERT_EQ(somewhere, found) << to_string(g);
      },
      {.connected_only = true});
}

TEST(StabilityPropertyTest, GirthBoundsCycleWindow) {
  // In any graph, severing an edge on a shortest cycle raises the
  // endpoint's distance to the other end to girth-1, so alpha_max is at
  // most ... (sanity link between girth and severance deltas on cycles).
  for (int n = 5; n <= 16; ++n) {
    const graph g = cycle(n);
    const alpha_interval window = compute_stability_record(g);
    // Severing turns distance 1 into n-1 for the endpoint: increase
    // includes at least (n-2).
    EXPECT_GE(window.hi, rational::from_int(n - 2));
  }
}

// The one-pass ball window and distance total against the two-pass BFS
// reference and total_distance.
void expect_profile_matches_reference(const graph& g) {
  const bcg_summary summary = bcg_profile(g);
  ASSERT_EQ(summary.window, testing::two_pass_stability_record(g))
      << to_string(g);
  ASSERT_EQ(summary.distance_total, total_distance(g).sum) << to_string(g);
}

TEST(StabilityPropertyTest, BallProfileMatchesReferenceOnAllOrder8Graphs) {
  int graphs = 0;
  for_each_graph(
      8,
      [&](const graph& g) {
        expect_profile_matches_reference(g);
        ++graphs;
      },
      {.connected_only = true});
  EXPECT_EQ(graphs, 11117);
}

TEST(StabilityPropertyTest, BallProfileMatchesReferenceOnSampledShards) {
  // Seeded shards of the census's fixed 128-way plan: two whole shards at
  // n = 9 and one in sixteen classes of one shard at n = 10.
  rng random = testing::seeded_rng();
  int checked = 0;
  const enumeration_plan plan9(9, 128);
  for (int pick = 0; pick < 2; ++pick) {
    plan9.for_each_key(random.below(128), [&](std::uint64_t key) {
      expect_profile_matches_reference(graph::from_key64(9, key));
      ++checked;
    });
  }
  const enumeration_plan plan10(10, 128);
  plan10.for_each_key(random.below(128), [&](std::uint64_t key) {
    if (random.below(16) != 0) return;
    expect_profile_matches_reference(graph::from_key64(10, key));
    ++checked;
  });
  EXPECT_GT(checked, 4000);
}

// Definition 3 at each positive finite endpoint of the window and one ulp
// either side; membership must agree with the per-alpha oracle. An open
// positive lo is open because some missing link blocks exactly there, so
// the oracle's witness at lo is an addition (a severance when the window
// is empty past alpha_max, which find_stability_violation reports first).
void expect_endpoints_match_definition(const graph& g, int& open_lo) {
  const alpha_interval window = compute_stability_record(g);
  for (const rational& endpoint : {window.lo, window.hi}) {
    if (endpoint.is_infinite() || endpoint.num <= 0) continue;
    const double at = endpoint.to_double();
    for (const double alpha :
         {std::nextafter(at, 0.0), at, std::nextafter(at, at + 1.0)}) {
      ASSERT_EQ(window.contains(alpha), is_pairwise_stable(g, alpha))
          << to_string(g) << " window " << to_string(window) << " alpha="
          << alpha;
    }
  }
  if (!window.lo_closed && window.lo.num > 0) {
    ++open_lo;
    const auto witness = find_stability_violation(g, window.lo.to_double());
    ASSERT_TRUE(witness.has_value()) << to_string(g);
    EXPECT_EQ(witness->type, window.lo <= window.hi
                                 ? stability_violation::kind::addition
                                 : stability_violation::kind::severance)
        << to_string(g) << " window " << to_string(window);
  }
}

TEST(StabilityPropertyTest, WindowEndpointsMatchDefinitionOnSampledShards) {
  // The exhaustive endpoint check stops at n = 6
  // (threshold_semantics_test). Beyond it, seeded shards of the census's
  // 128-way plan: every class of several shards at n = 7 and 8, one in
  // four classes of one shard at n = 9, one in 128 of one shard at n = 10.
  struct sample {
    int n;
    int shards;
    std::uint64_t one_in;
  };
  rng random = testing::seeded_rng();
  int checked = 0;
  int open_lo = 0;
  for (const sample& s : {sample{7, 16, 1}, sample{8, 4, 1}, sample{9, 1, 4},
                          sample{10, 1, 128}}) {
    const enumeration_plan plan(s.n, 128);
    for (int pick = 0; pick < s.shards; ++pick) {
      plan.for_each_key(random.below(128), [&](std::uint64_t key) {
        if (random.below(s.one_in) != 0) return;
        expect_endpoints_match_definition(graph::from_key64(s.n, key),
                                          open_lo);
        ++checked;
      });
    }
  }
  EXPECT_GT(checked, 1000);
  EXPECT_GT(open_lo, 0);
}

}  // namespace
}  // namespace bnf
