#include "equilibria/pairwise_stability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

TEST(PairwiseStabilityTest, DeletionIncreaseOnCycle) {
  // C5: severing an edge turns the endpoint's distance profile from
  // {1,1,2,2} (sum 6) into the path profile {1,2,3,4} (sum 10).
  EXPECT_EQ(edge_deletion_increase(cycle(5), 0, 4), 4);
  EXPECT_EQ(edge_deletion_increase(cycle(5), 4, 0), 4);
}

TEST(PairwiseStabilityTest, DeletionOfBridgeIsInfinite) {
  EXPECT_EQ(edge_deletion_increase(path(4), 1, 2), infinite_delta);
  EXPECT_EQ(edge_deletion_increase(star(6), 0, 3), infinite_delta);
}

TEST(PairwiseStabilityTest, AdditionDecreaseOnPath) {
  // Path 0-1-2-3-4: adding (0,4) moves 4 from distance 4 to 1 and 3 from
  // 3 to 2: saving 3 + 1 = 4 for endpoint 0.
  EXPECT_EQ(edge_addition_decrease(path(5), 0, 4), 4);
  // Adding (0,2): 2 moves 2->1; 3 moves 3->2; 4 moves 4->3: saving 3.
  EXPECT_EQ(edge_addition_decrease(path(5), 0, 2), 3);
}

TEST(PairwiseStabilityTest, AdditionAcrossComponentsIsInfinite) {
  const graph g(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(edge_addition_decrease(g, 0, 2), infinite_delta);
}

TEST(PairwiseStabilityTest, DeltaPreconditions) {
  EXPECT_THROW((void)edge_deletion_increase(path(3), 0, 2), precondition_error);
  EXPECT_THROW((void)edge_addition_decrease(path(3), 0, 1), precondition_error);
}

TEST(PairwiseStabilityTest, Lemma4CompleteGraphWindow) {
  // Lemma 4: for alpha < 1 the complete graph is pairwise stable (and it
  // remains so exactly up to alpha = 1).
  const alpha_interval window = compute_stability_record(complete(6));
  EXPECT_EQ(window.lo, rational::from_int(0));
  EXPECT_EQ(window.hi, rational::from_int(1));
  EXPECT_TRUE(window.hi_closed);
  EXPECT_TRUE(is_pairwise_stable(complete(6), 0.5));
  EXPECT_TRUE(is_pairwise_stable(complete(6), 1.0));
  EXPECT_FALSE(is_pairwise_stable(complete(6), 1.01));
}

TEST(PairwiseStabilityTest, Lemma4UniquenessBelowOne) {
  // For alpha < 1 the complete graph is the ONLY pairwise stable graph.
  for (const double alpha : {0.3, 0.7, 0.99}) {
    int stable = 0;
    for_each_graph(
        6,
        [&](const graph& g) {
          if (is_pairwise_stable(g, alpha)) {
            ++stable;
            EXPECT_TRUE(are_isomorphic(g, complete(6)));
          }
        },
        {.connected_only = true});
    EXPECT_EQ(stable, 1) << "alpha=" << alpha;
  }
}

TEST(PairwiseStabilityTest, Lemma5StarStableButNotUnique) {
  // Star: stable for every alpha >= 1 (window [1, inf)).
  const alpha_interval window = compute_stability_record(star(8));
  EXPECT_EQ(window.lo, rational::from_int(1));
  EXPECT_EQ(window.hi, rational::infinity());
  EXPECT_TRUE(is_pairwise_stable(star(8), 1.5));
  EXPECT_TRUE(is_pairwise_stable(star(8), 1000.0));
  EXPECT_FALSE(is_pairwise_stable(star(8), 0.5));

  // Not unique: at alpha = 3, C6 (window [2, 6]) is also stable.
  EXPECT_TRUE(is_pairwise_stable(star(6), 3.0));
  EXPECT_TRUE(is_pairwise_stable(cycle(6), 3.0));
}

TEST(PairwiseStabilityTest, TreesStableForLargeAlpha) {
  // Every edge of a tree is a bridge, so alpha_max = infinity.
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 20; ++trial) {
    const graph t = random_tree(8, random);
    const alpha_interval window = compute_stability_record(t);
    EXPECT_EQ(window.hi, rational::infinity()) << to_string(t);
    EXPECT_FALSE(window.hi_closed) << to_string(t);
    EXPECT_TRUE(is_pairwise_stable(t, window.lo.to_double() + 1.0));
  }
}

TEST(PairwiseStabilityTest, IntervalMatchesDirectCheckExhaustively) {
  // Property: membership in the stability window agrees with the literal
  // Definition 3 check on every connected graph on 6 vertices across a
  // grid that includes integer boundary cases.
  const double alphas[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 12.0};
  for_each_graph(
      6,
      [&](const graph& g) {
        const alpha_interval window = compute_stability_record(g);
        for (const double alpha : alphas) {
          ASSERT_EQ(window.contains(alpha), is_pairwise_stable(g, alpha))
              << to_string(g) << " alpha=" << alpha;
        }
      },
      {.connected_only = true});
}

TEST(PairwiseStabilityTest, RecordMatchesTwoPassReferenceOnAllOrder7Graphs) {
  // The record is built in one pass over the vertex pairs. Rebuild it the
  // long way from the public per-link deltas.
  int graphs = 0;
  for_each_graph(
      7,
      [&](const graph& g) {
        ASSERT_EQ(compute_stability_record(g),
                  testing::two_pass_stability_record(g))
            << to_string(g);
        ++graphs;
      },
      {.connected_only = true});
  EXPECT_EQ(graphs, 853);
}

// Which of the three deletion paths each edge takes.
struct deletion_paths {
  int triangle{0};  // the ball identity
  int fallback{0};  // row-replacement BFS, finite
  int bridge{0};    // row-replacement BFS, infinite
};

// Every ordered single-link delta that single_link_deltas reads off the
// balls must equal the direct BFS definition, and each kind must leave the
// other kind's entries and the diagonal alone.
void expect_ball_deltas_match(const graph& g, deletion_paths& seen) {
  const distance_balls balls(g);
  const int n = g.order();
  constexpr long long untouched = -1;
  std::vector<long long> deltas(static_cast<std::size_t>(n) * n, untouched);
  const auto at = [&](int a, int b) {
    return deltas[static_cast<std::size_t>(a * n + b)];
  };
  ASSERT_EQ(single_link_deltas(g, balls, link_change::addition, deltas), 0);
  for (const auto& [u, v] : g.non_edges()) {
    ASSERT_EQ(at(u, v), edge_addition_decrease(g, u, v))
        << to_string(g) << " add " << u << "," << v;
    ASSERT_EQ(at(v, u), edge_addition_decrease(g, v, u))
        << to_string(g) << " add " << v << "," << u;
  }
  for (const auto& [u, v] : g.edges()) {
    ASSERT_EQ(at(u, v), untouched) << to_string(g);
    ASSERT_EQ(at(v, u), untouched) << to_string(g);
  }
  const int fallback_bfs =
      single_link_deltas(g, balls, link_change::severance, deltas);
  int triangle_free_edges = 0;
  for (const auto& [u, v] : g.edges()) {
    if ((g.neighbors(u) & g.neighbors(v)) != 0) {
      ++seen.triangle;
    } else {
      ++triangle_free_edges;
      ++(is_bridge(g, u, v) ? seen.bridge : seen.fallback);
    }
    ASSERT_EQ(at(u, v), edge_deletion_increase(g, u, v))
        << to_string(g) << " cut " << u << "," << v;
    ASSERT_EQ(at(v, u), edge_deletion_increase(g, v, u))
        << to_string(g) << " cut " << v << "," << u;
  }
  // One BFS per endpoint of an edge in no triangle, bridges included.
  ASSERT_EQ(fallback_bfs, 2 * triangle_free_edges) << to_string(g);
  for (int v = 0; v < n; ++v) ASSERT_EQ(at(v, v), untouched);
}

TEST(PairwiseStabilityTest, BallDeltasMatchDirectDefinitionsOnAllSmallGraphs) {
  // The record exposes only the binding deltas, so check each one: every
  // connected graph on 2..7 vertices and K_3..K_12 (every edge in a
  // triangle), every ordered pair.
  deletion_paths seen;
  int graphs = 0;
  for (int n = 2; n <= 7; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          expect_ball_deltas_match(g, seen);
          ++graphs;
        },
        {.connected_only = true});
  }
  EXPECT_EQ(graphs, 1 + 2 + 6 + 21 + 112 + 853);
  EXPECT_GT(seen.triangle, 0);
  EXPECT_GT(seen.fallback, 0);
  EXPECT_GT(seen.bridge, 0);
  for (int n = 3; n <= 12; ++n) {
    deletion_paths clique;
    expect_ball_deltas_match(complete(n), clique);
    EXPECT_EQ(clique.triangle, n * (n - 1) / 2);
    EXPECT_EQ(clique.fallback + clique.bridge, 0);
  }
}

TEST(PairwiseStabilityTest, BallDeltasMatchDirectDefinitionsOnSampledShards) {
  // Seeded shards of the census's fixed 128-way plan (drawn with
  // replacement): sixteen whole shards at n = 8, two at n = 9, and one in
  // sixteen classes of one shard at n = 10.
  struct sample {
    int n;
    int shards;
    std::uint64_t one_in;
  };
  rng random = testing::seeded_rng();
  for (const sample& s :
       {sample{8, 16, 1}, sample{9, 2, 1}, sample{10, 1, 16}}) {
    SCOPED_TRACE("n=" + std::to_string(s.n));
    const enumeration_plan plan(s.n, 128);
    deletion_paths seen;
    int classes = 0;
    for (int pick = 0; pick < s.shards; ++pick) {
      plan.for_each_key(random.below(128), [&](std::uint64_t key) {
        if (random.below(s.one_in) != 0) return;
        expect_ball_deltas_match(graph::from_key64(s.n, key), seen);
        ++classes;
      });
    }
    EXPECT_GT(classes, 500);
    EXPECT_GT(seen.triangle, 0);
    EXPECT_GT(seen.fallback, 0);
    EXPECT_GT(seen.bridge, 0);
  }
}

TEST(PairwiseStabilityTest, TriangleFreeGraphsTakeTheFallbackEverywhere) {
  // No edge of these graphs lies in a triangle, so every deletion delta
  // comes from the row-replacement BFS: Petersen, cycles, K_{3,3}, every
  // tree on 2..10 vertices, seeded random trees and Hoffman-Singleton
  // (n = 50).
  std::vector<graph> graphs = {petersen(), complete_bipartite(3, 3),
                               hoffman_singleton()};
  for (int n = 4; n <= 16; ++n) graphs.push_back(cycle(n));
  for (int n = 2; n <= 10; ++n) {
    for_each_graph(
        n, [&](const graph& tree) { graphs.push_back(tree); },
        {.connected_only = true, .forests_only = true});
  }
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 10; ++trial) {
    graphs.push_back(random_tree(16, random));
  }
  for (const graph& g : graphs) {
    deletion_paths seen;
    expect_ball_deltas_match(g, seen);
    EXPECT_EQ(seen.triangle, 0) << to_string(g);
    EXPECT_EQ(seen.fallback + seen.bridge, g.size()) << to_string(g);
    EXPECT_EQ(compute_stability_record(g),
              testing::two_pass_stability_record(g))
        << to_string(g);
  }
}

TEST(PairwiseStabilityTest, RecordRequiresConnectedGraph) {
  // The connectivity check rides on the ball BFS; it must still reject
  // every disconnected input.
  EXPECT_THROW((void)compute_stability_record(graph(2)), precondition_error);
  EXPECT_THROW((void)compute_stability_record(graph(4, {{0, 1}, {2, 3}})),
               precondition_error);
  EXPECT_THROW((void)bcg_profile(graph(5, {{0, 1}, {1, 2}, {3, 4}})),
               precondition_error);
  const graph split(4, {{0, 1}, {2, 3}});
  const distance_balls balls(split);
  std::vector<long long> deltas(16);
  EXPECT_THROW((void)bcg_profile(split, balls), precondition_error);
  EXPECT_THROW(
      (void)single_link_deltas(split, balls, link_change::addition, deltas),
      precondition_error);
  EXPECT_THROW(
      (void)single_link_deltas(split, balls, link_change::severance, deltas),
      precondition_error);
  // Balls of another graph, or a table too small for n * n entries.
  const graph joined = path(4);
  EXPECT_THROW((void)bcg_profile(joined, distance_balls(path(5))),
               precondition_error);
  std::vector<long long> small(15);
  EXPECT_THROW((void)single_link_deltas(joined, distance_balls(joined),
                                        link_change::addition, small),
               precondition_error);
}

TEST(PairwiseStabilityTest, SmallestOrdersPinTheirWindows) {
  // n = 1: no pair constrains anything, so the window is (0, inf).
  const alpha_interval single_window = compute_stability_record(graph(1));
  EXPECT_EQ(single_window.lo, rational::from_int(0));
  EXPECT_FALSE(single_window.lo_closed);
  EXPECT_EQ(single_window.hi, rational::infinity());
  EXPECT_FALSE(single_window.hi_closed);
  EXPECT_EQ(bcg_profile(graph(1)).distance_total, 0);

  // n = 2: the one edge is a bridge, so alpha_max = inf.
  const bcg_summary pair = bcg_profile(path(2));
  EXPECT_EQ(pair.window.lo, rational::from_int(0));
  EXPECT_FALSE(pair.window.lo_closed);
  EXPECT_EQ(pair.window.hi, rational::infinity());
  EXPECT_FALSE(pair.window.hi_closed);
  EXPECT_EQ(pair.distance_total, 2);
  EXPECT_EQ(pair.fallback_bfs, 1);
}

TEST(PairwiseStabilityTest, OctahedronBoundaryCase) {
  // SRG(6,4,2,4): every missing link saves exactly 1 for both endpoints
  // and every severance costs exactly 1, so the octahedron is pairwise
  // stable exactly at alpha = 1 — a tie case where the open Lemma-2
  // interval is empty but Definition 3 holds.
  const graph g = octahedron();
  const alpha_interval window = compute_stability_record(g);
  EXPECT_EQ(window.lo, rational::from_int(1));
  EXPECT_EQ(window.hi, rational::from_int(1));
  EXPECT_TRUE(window.lo_closed);
  EXPECT_TRUE(window.hi_closed);
  EXPECT_TRUE(is_pairwise_stable(g, 1.0));
  EXPECT_FALSE(is_pairwise_stable(g, 0.99));
  EXPECT_FALSE(is_pairwise_stable(g, 1.01));
}

TEST(PairwiseStabilityTest, DisconnectedNeverStable) {
  EXPECT_FALSE(is_pairwise_stable(graph(4), 2.0));
  EXPECT_FALSE(is_pairwise_stable(graph(4, {{0, 1}, {2, 3}}), 2.0));
  const auto violation = find_stability_violation(graph(3), 1.0);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->type, stability_violation::kind::disconnected);
}

TEST(PairwiseStabilityTest, ViolationWitnesses) {
  // Complete graph at alpha=2: any endpoint strictly gains by severing.
  const auto sever = find_stability_violation(complete(5), 2.0);
  ASSERT_TRUE(sever.has_value());
  EXPECT_EQ(sever->type, stability_violation::kind::severance);
  EXPECT_FALSE(sever->describe().empty());

  // Path at alpha=1.5: the ends block by adding a chord.
  const auto add = find_stability_violation(path(6), 1.5);
  ASSERT_TRUE(add.has_value());
  EXPECT_EQ(add->type, stability_violation::kind::addition);

  EXPECT_FALSE(find_stability_violation(star(6), 2.0).has_value());
}

TEST(PairwiseStabilityTest, PaperGalleryGraphsAreStableSomewhere) {
  // Figure 1: Petersen, McGee, Clebsch, Hoffman–Singleton, star admit a
  // nonempty stability window; the octahedron is boundary-stable at 1.
  for (const auto& entry : paper_gallery()) {
    if (entry.name == "desargues" || entry.name == "dodecahedron") continue;
    EXPECT_FALSE(compute_stability_record(entry.g).empty()) << entry.name;
  }
}

TEST(PairwiseStabilityTest, PetersenWindow) {
  const alpha_interval window = compute_stability_record(petersen());
  EXPECT_EQ(window.lo, rational::from_int(1));
  EXPECT_EQ(window.hi, rational::from_int(5));
  EXPECT_TRUE(is_pairwise_stable(petersen(), 3.0));
}

TEST(PairwiseStabilityTest, HoffmanSingletonWindow) {
  const alpha_interval window = compute_stability_record(hoffman_singleton());
  EXPECT_EQ(window.lo, rational::from_int(1));
  EXPECT_EQ(window.hi, rational::from_int(9));
}

class CycleWindowSuite : public ::testing::TestWithParam<int> {};

TEST_P(CycleWindowSuite, Lemma6MeasuredWindowsAreExact) {
  // Exact windows for cycles, verified against per-alpha Definition 3
  // checks just inside/outside the window. (The paper's closed forms match
  // for even n; for odd n the measured alpha_max is (n-1)^2/4, not
  // (n+1)(n-1)/4 — see EXPERIMENTS.md.)
  const int n = GetParam();
  const graph g = cycle(n);
  const alpha_interval window = compute_stability_record(g);
  ASSERT_LT(window.lo, window.hi);

  if (n % 2 == 1) {
    EXPECT_EQ(window.hi, rational::make((n - 1) * (n - 1), 4));
  } else {
    EXPECT_EQ(window.hi, rational::make(n * (n - 2), 4));
  }
  if (n % 4 == 2) {
    EXPECT_EQ(window.lo, rational::make(n * n - 4 * n + 4, 8));
  } else if (n % 4 == 0) {
    EXPECT_EQ(window.lo, rational::make(n * n - 4 * n + 8, 8));
  }

  const double lo = window.lo.to_double();
  const double hi = window.hi.to_double();
  EXPECT_TRUE(is_pairwise_stable(g, (lo + hi) / 2.0));
  EXPECT_FALSE(is_pairwise_stable(g, hi + 0.5));
  if (lo > 0.5) {
    EXPECT_FALSE(is_pairwise_stable(g, lo - 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(Cycles, CycleWindowSuite,
                         ::testing::Values(5, 6, 7, 8, 9, 10, 11, 12, 14, 16,
                                           20, 24));

TEST(PairwiseStabilityTest, RequiresPositiveAlpha) {
  EXPECT_THROW((void)is_pairwise_stable(star(4), 0.0), precondition_error);
  EXPECT_THROW((void)is_pairwise_stable(star(4), -1.0), precondition_error);
}

}  // namespace
}  // namespace bnf
