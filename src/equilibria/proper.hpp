// Proper-equilibrium achievability (paper Lemma 3 / Proposition 2).
//
// Myerson's proper equilibrium cannot be checked directly on the pure
// game (it quantifies over vanishing sequences of mixed perturbations),
// so — exactly as the paper does — we work through the sufficient
// condition of Calvó-Armengol & Ilkiliç (Lemma 3): a pairwise Nash
// network where EVERY missing link is strictly unprofitable for BOTH
// endpoints is a proper equilibrium for the same link cost.
//
// Proposition 2 then follows: a link-convex graph admits a window of link
// costs (max addition saving, min deletion increase] where it is pairwise
// stable AND all missing links are strictly unprofitable, hence
// achievable as a proper equilibrium.
#pragma once

#include "equilibria/alpha_interval.hpp"
#include "graph/graph.hpp"

namespace bnf {

/// Lemma 3 premise: every missing link strictly hurts both endpoints at
/// this alpha (their distance saving is strictly below alpha).
[[nodiscard]] bool all_missing_links_strictly_unprofitable(const graph& g,
                                                           double alpha);

/// Lemma 3: pairwise Nash (== pairwise stable, Prop 1) + strict
/// unprofitability of all missing links => proper equilibrium at alpha.
[[nodiscard]] bool is_proper_equilibrium_certified(const graph& g,
                                                   double alpha);

/// Proposition 2 window (max addition saving, min deletion increase]:
/// the link costs for which the graph is certified proper. Integer
/// endpoints; hi is +infinity (open) when every edge is a bridge. Has an
/// interior (lo < hi) iff the graph is link convex. Requires connected g.
[[nodiscard]] alpha_interval proper_equilibrium_window(const graph& g);

}  // namespace bnf
