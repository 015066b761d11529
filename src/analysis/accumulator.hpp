// The one equilibrium-set aggregator: evaluate_census (analysis/census.hpp)
// folds every profile it counts through this type, for the grid sweep and
// the breakpoint curve alike, including the count == 0 edge cases, where
// averages and the price of stability report as 0 while max_poa stays at
// its empty default.
//
// Exactness/determinism contract: link counts and distance totals are
// summed as INTEGERS and the PoA extremes tracked with min/max (which are
// exactly associative, commutative and idempotent over doubles), so the
// aggregate is byte-identical no matter in which order the profiles
// arrive, or whether m topologies with one profile arrive as m adds of
// multiplicity 1 or as one add of multiplicity m. The only
// floating-point arithmetic happens once, in stats(), from the exact
// integer sums.
#pragma once

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"
#include "util/rational.hpp"

namespace bnf {

/// Aggregates over one game's equilibrium set at one link cost.
struct equilibrium_set_stats {
  long long count{0};
  double avg_poa{0.0};
  double max_poa{0.0};  // price of anarchy (worst equilibrium)
  double min_poa{0.0};  // price of stability (best equilibrium)
  double avg_edges{0.0};
};

/// Exact accumulator. `add` takes a profile's PoA at the evaluation point
/// (social / opt, computed by the caller) plus its integer link count and
/// distance total.
struct equilibrium_accumulator {
  long long count{0};
  long long edge_sum{0};
  long long distance_sum{0};
  double poa_max{0.0};
  double poa_min{std::numeric_limits<double>::infinity()};

  /// `multiplicity` topologies sharing one profile: bit-identical to that
  /// many adds of multiplicity 1 (zero leaves the accumulator as is).
  /// The sums use checked arithmetic, so an overflow throws.
  void add(double poa, int edges, long long distance_total,
           long long multiplicity) {
    expects(multiplicity >= 0,
            "equilibrium_accumulator: multiplicity must be >= 0");
    if (multiplicity == 0) return;
    count = checked_add(count, multiplicity);
    edge_sum = checked_add(edge_sum, checked_mul(edges, multiplicity));
    distance_sum =
        checked_add(distance_sum, checked_mul(distance_total, multiplicity));
    poa_max = std::max(poa_max, poa);
    poa_min = std::min(poa_min, poa);
  }

  /// Final statistics at one link cost. `edge_social_cost` is the TOTAL
  /// social cost per edge at the evaluation point (tau: 2 * alpha_BCG for
  /// the bilateral game, alpha_UCG for the unilateral one) and `opt` the
  /// optimal social cost there, so
  ///   avg_poa = (edge_social_cost * edge_sum + distance_sum) / opt / count.
  [[nodiscard]] equilibrium_set_stats stats(double edge_social_cost,
                                            double opt) const {
    equilibrium_set_stats result;
    result.count = count;
    result.max_poa = poa_max;
    if (count > 0) {
      result.min_poa = poa_min;
      const double social_sum =
          edge_social_cost * static_cast<double>(edge_sum) +
          static_cast<double>(distance_sum);
      result.avg_poa = social_sum / opt / static_cast<double>(count);
      result.avg_edges =
          static_cast<double>(edge_sum) / static_cast<double>(count);
    }
    return result;
  }
};

}  // namespace bnf
