// Integration tests: each of the paper's numbered results, executed
// end-to-end across modules. (Lemmas 1, 2, 4, 5, 6 and Proposition 1 have
// dedicated unit suites; this file covers the cross-cutting claims.)
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "analysis/census.hpp"
#include "analysis/optimum.hpp"
#include "equilibria/link_convexity.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/proper.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

double midpoint_alpha(const alpha_interval& window) {
  const double lo = window.lo.to_double();
  return window.hi.is_infinite() ? lo + 1.0
                                 : (lo + window.hi.to_double()) / 2.0;
}

TEST(PaperClaimsTest, Proposition5TreesNashInUcgAreBcgStable) {
  // Prop 5: a tree that is a UCG Nash graph at alpha is pairwise stable
  // in the BCG at the same alpha. Exhaustive over all trees on 6..8
  // vertices and a grid of link costs.
  const double alphas[] = {1.5, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0, 40.0};
  for (const int n : {6, 7, 8}) {
    for (const graph& tree : all_trees(n)) {
      for (const double alpha : alphas) {
        if (is_ucg_nash(tree, alpha)) {
          ASSERT_TRUE(is_pairwise_stable(tree, alpha))
              << to_string(tree) << " alpha=" << alpha;
        }
      }
    }
  }
}

TEST(PaperClaimsTest, ConjectureHoldsExhaustivelyUpToFivePlayers) {
  // The paper's conjecture (Sec 4.3): every UCG Nash graph is pairwise
  // stable in the BCG at the same alpha. It holds exhaustively for
  // n <= 5 over a generic link-cost grid.
  const double alphas[] = {0.7, 1.3, 1.7, 2.3, 2.6, 3.4, 4.6, 5.3, 8.9};
  for (const int n : {4, 5}) {
    for_each_graph(
        n,
        [&](const graph& g) {
          for (const double alpha : alphas) {
            if (is_ucg_nash(g, alpha)) {
              ASSERT_TRUE(is_pairwise_stable(g, alpha))
                  << to_string(g) << " alpha=" << alpha;
            }
          }
        },
        {.connected_only = true});
  }
}

TEST(PaperClaimsTest, ConjectureCounterexampleAtSixPlayers) {
  // Reproduction finding (documented in EXPERIMENTS.md): the conjecture
  // FAILS at n = 6. Take C5 on (0,2,3,1,4) plus vertex 5 adjacent to
  // {0,1}. At alpha = 2.6, vertex 5 willingly buys edge (0,5) (severing
  // would cost it distance 3 > alpha), so the graph is UCG-Nash; but the
  // free-riding endpoint 0 values the edge at only 2 < alpha, and in the
  // BCG — where 0 must pay its own share — it severs. No tie involved:
  // the gap is the whole interval inc_0 = 2 < alpha < 3 = inc_5.
  const graph g(6, {{0, 2}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}});
  EXPECT_EQ(edge_deletion_increase(g, 0, 5), 2);
  EXPECT_EQ(edge_deletion_increase(g, 5, 0), 3);
  EXPECT_TRUE(is_ucg_nash(g, 2.6));
  EXPECT_FALSE(is_pairwise_stable(g, 2.6));
  // A knife-edge variant of the same phenomenon at alpha = 2 exactly:
  const graph tie(6,
                  {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 5}});
  EXPECT_TRUE(is_ucg_nash(tie, 2.0));
  EXPECT_FALSE(is_pairwise_stable(tie, 2.0));
  EXPECT_FALSE(is_ucg_nash(tie, 1.99));
  EXPECT_FALSE(is_ucg_nash(tie, 2.01));
}

TEST(PaperClaimsTest, ConjectureViolationsAreRareAtSixPlayers) {
  // Quantify the finding: across a generic grid at n = 6, Nash graphs are
  // almost always pairwise stable; violations are confined to a narrow
  // band of link costs (around alpha in (2,3)).
  const double alphas[] = {1.3, 1.7, 2.6, 3.4, 5.3, 8.9};
  int nash_total = 0;
  int violations = 0;
  for (const double alpha : alphas) {
    for_each_graph(
        6,
        [&](const graph& g) {
          if (is_ucg_nash(g, alpha)) {
            ++nash_total;
            if (!is_pairwise_stable(g, alpha)) ++violations;
          }
        },
        {.connected_only = true});
  }
  EXPECT_GT(nash_total, 10);
  EXPECT_GE(violations, 1);                 // the counterexample band
  EXPECT_LE(violations * 5, nash_total);    // but a small minority
}

TEST(PaperClaimsTest, Proposition4UpperBoundOnWorstCasePoA) {
  // Prop 4 (+ Demaine et al.): worst-case stable PoA is
  // O(min(sqrt(alpha), n/sqrt(alpha))). Verify the enumerated worst case
  // at n=7 stays within a small constant of the envelope.
  const std::array<double, 6> taus{2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
  const auto points = census_sweep(7, taus, {.include_ucg = false});
  for (const auto& point : points) {
    if (point.bcg.count == 0) continue;
    const double alpha = point.alpha_bcg;
    const double envelope =
        std::min(std::sqrt(alpha), 7.0 / std::sqrt(alpha));
    EXPECT_LE(point.bcg.max_poa, 4.0 * std::max(envelope, 1.0))
        << "tau=" << point.tau;
  }
}

TEST(PaperClaimsTest, Proposition3FamilyHasGrowingPoAWithLogAlpha) {
  // Lemma 7 / Prop 3: Moore-bound-family regular graphs are pairwise
  // stable with PoA that grows with their diameter ~ log alpha. We verify
  // (a) stability windows exist, (b) within the family the PoA at the
  // window midpoint grows with diameter.
  struct family_entry {
    graph g;
    int diam;
  };
  const family_entry family[] = {
      {petersen(), 2}, {heawood(), 3}, {mcgee(), 4}, {tutte_coxeter(), 4}};
  double previous_poa = 0.0;
  int previous_diam = 0;
  for (const auto& [g, diam] : family) {
    ASSERT_EQ(diameter(g), diam);
    const alpha_interval window = compute_stability_record(g);
    ASSERT_LT(window.lo, window.hi) << to_string(g);
    const double alpha = midpoint_alpha(window);
    const connection_game game{g.order(), alpha, link_rule::bilateral};
    const double poa = price_of_anarchy(g, game);
    EXPECT_GE(poa, 1.0);
    if (diam > previous_diam) {
      EXPECT_GE(poa, previous_poa - 0.05) << to_string(g);
    }
    previous_poa = poa;
    previous_diam = diam;
  }
}

TEST(PaperClaimsTest, Footnote7PetersenNashAndStable) {
  // Petersen: UCG-Nash for 1 <= alpha <= 4; BCG-stable for [1, 5].
  for (const double alpha : {1.0, 2.5, 4.0}) {
    EXPECT_TRUE(is_ucg_nash(petersen(), alpha));
  }
  for (const double alpha : {1.5, 3.0, 5.0}) {
    EXPECT_TRUE(is_pairwise_stable(petersen(), alpha));
  }
}

TEST(PaperClaimsTest, Section43CostTranslationInequality) {
  // Footnote 6's accounting: for any connected graph G with UCG social
  // cost C, the BCG social cost is exactly C + alpha*|A| (each edge is
  // paid twice instead of once), hence >= C + alpha*(n-1).
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 5 + static_cast<int>(random.below(4));
    const int max_edges = n * (n - 1) / 2;
    const int m = std::min(
        max_edges, n - 1 + static_cast<int>(random.below(
                               static_cast<std::uint64_t>(2 * n))));
    const graph g = random_connected_gnm(n, m, random);
    const double alpha = 0.5 + 4.0 * random.uniform_real();
    const connection_game ucg{n, alpha, link_rule::unilateral};
    const connection_game bcg{n, alpha, link_rule::bilateral};
    const double cost_ucg = social_cost(g, ucg).finite;
    const double cost_bcg = social_cost(g, bcg).finite;
    EXPECT_NEAR(cost_bcg, cost_ucg + alpha * g.size(), 1e-9);
    EXPECT_GE(cost_bcg, cost_ucg + alpha * (n - 1) - 1e-9);
  }
}

TEST(PaperClaimsTest, Section5CrossoverShapeAtSmallN) {
  // Figure 2's qualitative claim: for small link costs the BCG average
  // PoA is no worse than the UCG's; for large link costs it is no better.
  const std::array<double, 2> taus{1.0, 24.0};
  const auto points = census_sweep(6, taus);
  // tau=1: alpha_BCG=0.5 -> complete is the unique stable graph (PoA 1).
  ASSERT_GT(points[0].bcg.count, 0);
  ASSERT_GT(points[0].ucg.count, 0);
  EXPECT_LE(points[0].bcg.avg_poa, points[0].ucg.avg_poa + 1e-9);
  // tau=24: expensive links -> BCG admits over-connected stable graphs.
  ASSERT_GT(points[1].bcg.count, 0);
  ASSERT_GT(points[1].ucg.count, 0);
  EXPECT_GE(points[1].bcg.avg_poa, points[1].ucg.avg_poa - 1e-9);
}

TEST(PaperClaimsTest, Section5BcgDenserOnAverage) {
  // Figure 3's claim: stable BCG networks carry more links on average
  // than UCG Nash networks, for intermediate link costs.
  const std::array<double, 2> taus{4.0, 8.0};
  const auto points = census_sweep(6, taus);
  for (const auto& point : points) {
    if (point.bcg.count == 0 || point.ucg.count == 0) continue;
    EXPECT_GE(point.bcg.avg_edges, point.ucg.avg_edges - 1e-9)
        << "tau=" << point.tau;
  }
}

TEST(PaperClaimsTest, WelfareOptimumIsStableInBcgEverywhere) {
  // Section 1.2: "the welfare optimal solution is stable for both
  // connection games we consider." For the BCG this holds at every link
  // cost: complete is stable for alpha <= 1, star for alpha >= 1 — so the
  // price of stability is exactly 1.
  for (const double alpha : {0.3, 0.7, 1.3, 2.6, 5.3, 11.7, 40.1}) {
    const graph optimum =
        efficient_graph({7, alpha, link_rule::bilateral});
    EXPECT_TRUE(is_pairwise_stable(optimum, alpha)) << "alpha=" << alpha;
  }
}

TEST(PaperClaimsTest, WelfareOptimumIsNotUcgNashBetweenOneAndTwo) {
  // Reproduction nuance: the same remark FAILS for the UCG in the band
  // 1 < alpha < 2, where the optimum is the complete graph but K_n is
  // Nash only for alpha <= 1 (dropping a link saves alpha > its distance
  // cost 1). The UCG price of stability is > 1 there.
  EXPECT_FALSE(is_ucg_nash(complete(7), 1.5));
  EXPECT_TRUE(is_ucg_nash(efficient_graph({7, 0.7, link_rule::unilateral}),
                          0.7));
  EXPECT_TRUE(is_ucg_nash(efficient_graph({7, 2.6, link_rule::unilateral}),
                          2.6));

  const std::array<double, 3> taus{1.3, 2.6, 5.3};  // alpha_UCG = tau
  const auto points = census_sweep(6, taus);
  ASSERT_GT(points[0].ucg.count, 0);
  EXPECT_GT(points[0].ucg.min_poa, 1.0 + 1e-9);   // alpha = 1.3: PoS > 1
  EXPECT_NEAR(points[1].ucg.min_poa, 1.0, 1e-9);  // alpha = 2.6: PoS = 1
  EXPECT_NEAR(points[2].ucg.min_poa, 1.0, 1e-9);
  // And the BCG columns pin to 1 throughout.
  for (const auto& point : points) {
    if (point.bcg.count > 0) {
      EXPECT_NEAR(point.bcg.min_poa, 1.0, 1e-9);
    }
  }
}

TEST(PaperClaimsTest, ProperEquilibriaExistForGalleryStableGraphs) {
  // Prop 2 pipeline on the gallery: link-convex graphs admit an alpha that
  // is simultaneously pairwise stable and strictly addition-averse.
  for (const auto& entry : paper_gallery()) {
    if (!is_link_convex(entry.g)) continue;
    const alpha_interval window = proper_equilibrium_window(entry.g);
    ASSERT_LT(window.lo, window.hi) << entry.name;
    const double alpha = midpoint_alpha(window);
    EXPECT_TRUE(is_proper_equilibrium_certified(entry.g, alpha)) << entry.name;
  }
}

}  // namespace
}  // namespace bnf
