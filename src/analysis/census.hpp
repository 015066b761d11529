// The exhaustive equilibrium census behind the paper's empirical Section 5
// (Figures 2 and 3): enumerate every connected topology on n vertices up
// to isomorphism, decide for each link cost which topologies are
// equilibria — pairwise stable in the BCG, Nash-supportable in the UCG —
// and aggregate the average/worst price of anarchy and average link count
// over each equilibrium set.
//
// The two games are aligned by TOTAL per-edge cost tau (the paper plots
// log(alpha) for the UCG against log(2*alpha) for the BCG):
//      alpha_UCG = tau,   alpha_BCG = tau / 2.
//
// Every player cost in both games is linear in alpha, so each topology's
// equilibrium region is an exact rational interval (certificates from
// equilibria/alpha_interval.hpp). A census therefore runs ONE stability
// analysis per topology and folds the result into the profile histogram
// of analysis/topology_profile.hpp. evaluate_census is the one place that
// turns a histogram into statistics: exact interval membership of each
// distinct profile at exact rational taus, weighted by multiplicity. The
// grid sweep (census_sweep, Figures 2/3 and the price of stability) and
// the breakpoint curve (analysis/poa_curve.hpp) differ only in the taus
// they ask for, so no per-grid-point Nash search (and no epsilon slack)
// is involved and the cost does not depend on the grid resolution.
#pragma once

#include <span>
#include <vector>

#include "analysis/accumulator.hpp"
#include "analysis/topology_profile.hpp"
#include "equilibria/alpha_interval.hpp"
#include "graph/graph.hpp"
#include "util/rational.hpp"

namespace bnf {

/// The census statistics at one total edge cost.
struct census_point {
  double tau{0.0};        // total per-edge cost
  double alpha_bcg{0.0};  // tau / 2
  double alpha_ucg{0.0};  // tau
  equilibrium_set_stats bcg;
  equilibrium_set_stats ucg;
};

struct census_options {
  bool include_ucg{true};
  int threads{0};  // 0 = hardware concurrency
};

/// Both games' equilibrium statistics at every total edge cost in `taus`
/// (any order, repeats allowed; point i answers taus[i]) from a profile
/// histogram's bins. A bin counts, with its multiplicity, wherever its BCG
/// interval contains tau / 2 or its UCG region contains tau; its PoA there
/// is (tau * edges + distance_total) / optimal_social_cost. Every tau must
/// be finite and positive.
[[nodiscard]] std::vector<census_point> evaluate_census(
    int n, std::span<const profile_bin> bins, std::span<const rational> taus);

/// Run the full census at every total-edge-cost in `taus`: the profile
/// histogram, with the UCG search clamped to the grid's hull, evaluated
/// by evaluate_census at the exact value of each double.
/// Requires 2 <= n <= max_enumeration_order (n=8 takes seconds; n=10,
/// the paper's setting, walks 11.7M topologies in minutes, holding only
/// the profile histogram). Performs one exact stability analysis per
/// topology; `ucg_nash_search_invocations` does not advance (the tests
/// pin this).
[[nodiscard]] std::vector<census_point> census_sweep(
    int n, std::span<const double> taus, const census_options& options = {});

/// Per-topology census record for small n (<= 8): everything needed to
/// re-derive both games' equilibrium sets at ANY link cost — grid point
/// or exact rational breakpoint — without touching the graph again.
/// Every census pipeline goes through the profile histogram, which
/// aggregates the same profiles without materializing per-topology
/// records; these records stay as its independent small-n oracle.
struct census_graph_record {
  std::uint64_t key{0};  // canonical key (order implied by the census)
  int edges{0};
  long long distance_total{0};  // sum over ordered pairs
  /// Exact pairwise-stability window (alpha_BCG units).
  alpha_interval bcg_interval;
  /// Exact UCG Nash region (alpha_UCG units) from the parametric
  /// orientation search. Empty when include_ucg was false.
  alpha_interval_set ucg;
};

/// Materialized per-topology records, sorted by canonical key. The UCG
/// region is computed unless options.include_ucg is false.
[[nodiscard]] std::vector<census_graph_record> build_census_records(
    int n, const census_options& options = {});

}  // namespace bnf
