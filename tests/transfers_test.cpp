#include "equilibria/transfers.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "equilibria/pairwise_stability.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(TransfersTest, StarWindowUnchangedByTransfers) {
  // Star: additions save exactly 1 per endpoint (joint 2, so a tie at
  // alpha = 1, which does not block); severances disconnect. Same window
  // as plain stability: [1, inf).
  const alpha_interval window = compute_transfer_stability_interval(star(8));
  EXPECT_EQ(window.lo, rational::from_int(1));
  EXPECT_TRUE(window.lo_closed);
  EXPECT_TRUE(window.hi.is_infinite());
  EXPECT_EQ(window, compute_stability_record(star(8)));
  EXPECT_TRUE(is_transfer_stable(star(8), 1.0));
  EXPECT_FALSE(is_transfer_stable(star(8), std::nextafter(1.0, 0.0)));
}

TEST(TransfersTest, CompleteGraphWindow) {
  // Severing any edge of K_n costs each endpoint exactly 1 (joint 2):
  // transfer-stable up to alpha = 1, same as plain.
  const alpha_interval window = compute_transfer_stability_interval(complete(6));
  EXPECT_EQ(window.lo, rational::from_int(0));
  EXPECT_FALSE(window.lo_closed);
  EXPECT_EQ(window.hi, rational::from_int(1));
  EXPECT_TRUE(window.hi_closed);
}

TEST(TransfersTest, AsymmetricEdgeSurvivesWithTransfers) {
  // The conjecture counterexample from paper_claims_test: edge (0,5) is
  // valued 2 by endpoint 0 and 3 by endpoint 5. Plain stability severs it
  // for alpha in (2, 3); with transfers the joint value 5 covers both
  // shares up to alpha = 2.5.
  const graph g(6, {{0, 2}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}});
  EXPECT_FALSE(is_pairwise_stable(g, 2.3));
  EXPECT_TRUE(is_transfer_stable(g, 2.3));
  EXPECT_EQ(classify_transfer_relation(g, 2.3),
            transfer_relation::only_transfer_stable);
}

TEST(TransfersTest, TransfersCanAlsoDestabilize) {
  // Additions bind on the JOINT surplus: a pair whose total saving
  // exceeds 2*alpha blocks even when the least-interested side alone
  // would not. The broom tree below is plainly stable for alpha > 2 but
  // transfer-stable only for alpha >= 2.5.
  const graph broom(6, {{0, 1}, {0, 3}, {0, 4}, {0, 5}, {1, 2}});
  const alpha_interval plain = compute_stability_record(broom);
  const alpha_interval joint = compute_transfer_stability_interval(broom);
  EXPECT_EQ(plain.lo, rational::from_int(2));
  EXPECT_EQ(joint.lo, rational::make(5, 2));
  EXPECT_TRUE(joint.lo_closed);
  EXPECT_TRUE(is_pairwise_stable(broom, 2.25));
  EXPECT_FALSE(is_transfer_stable(broom, 2.25));
  EXPECT_EQ(classify_transfer_relation(broom, 2.25),
            transfer_relation::only_plain_stable);
}

// The definition in transfers.hpp, link by link and independent of the
// window: every non-bridge edge keeps inc_u + inc_v >= 2*alpha and every
// missing link has dec_u + dec_v <= 2*alpha. The sums are small integers
// and 2*alpha is exact, so the double compares are exact.
bool transfer_stable_by_definition(const graph& g, double alpha) {
  for (const auto& [u, v] : g.edges()) {
    const long long inc_u = edge_deletion_increase(g, u, v);
    const long long inc_v = edge_deletion_increase(g, v, u);
    if (inc_u >= infinite_delta || inc_v >= infinite_delta) continue;
    if (static_cast<double>(inc_u + inc_v) < 2.0 * alpha) return false;
  }
  for (const auto& [u, v] : g.non_edges()) {
    const long long dec_u = edge_addition_decrease(g, u, v);
    const long long dec_v = edge_addition_decrease(g, v, u);
    if (static_cast<double>(dec_u + dec_v) > 2.0 * alpha) return false;
  }
  return true;
}

TEST(TransfersTest, WindowsMatchDefinitionExhaustively) {
  // Property: on every connected graph with n <= 6, the window agrees
  // with the definition at each positive finite endpoint (t_min, t_max;
  // integers or halves, so exact doubles) and one ulp either side.
  int graphs = 0;
  int probes = 0;
  for (int n = 2; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          ++graphs;
          const alpha_interval window = compute_transfer_stability_interval(g);
          for (const rational& endpoint : {window.lo, window.hi}) {
            if (endpoint.is_infinite() || endpoint.num <= 0) continue;
            const double at = endpoint.to_double();
            for (const double alpha : {std::nextafter(at, 0.0), at,
                                       std::nextafter(at, at + 1.0)}) {
              ++probes;
              const bool expected = transfer_stable_by_definition(g, alpha);
              ASSERT_EQ(window.contains(alpha), expected)
                  << to_string(g) << " window " << to_string(window)
                  << " alpha=" << alpha;
              ASSERT_EQ(is_transfer_stable(g, alpha), expected)
                  << to_string(g) << " alpha=" << alpha;
            }
          }
        },
        {.connected_only = true});
  }
  EXPECT_EQ(graphs, 1 + 2 + 6 + 21 + 112);
  EXPECT_GT(probes, graphs);
}

TEST(TransfersTest, JointBoundsBracketPlainBounds) {
  // For every graph: plain alpha_min <= transfer alpha_min (the joint
  // surplus of a blocking pair is at least twice the least-interested
  // side) — and both alpha_max orderings occur; transfers trade one
  // boundary for the other.
  for_each_graph(
      6,
      [&](const graph& g) {
        const alpha_interval plain = compute_stability_record(g);
        const alpha_interval joint = compute_transfer_stability_interval(g);
        ASSERT_LE(plain.lo, joint.lo) << to_string(g);
      },
      {.connected_only = true});
}

TEST(TransfersTest, DisconnectedNeverTransferStable) {
  EXPECT_FALSE(is_transfer_stable(graph(4), 1.0));
}

TEST(TransfersTest, Preconditions) {
  EXPECT_THROW((void)compute_transfer_stability_interval(graph(3)),
               precondition_error);
  EXPECT_THROW((void)is_transfer_stable(star(4), 0.0), precondition_error);
}

}  // namespace
}  // namespace bnf
