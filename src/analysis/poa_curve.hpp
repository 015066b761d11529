// Breakpoint-exact census curves. Both games' equilibrium regions are
// exact rational intervals, so instead of sampling link cost on a grid
// (Figures 2/3 style) the curves can be described completely: merge every
// interval endpoint into one sorted breakpoint list, and between
// consecutive breakpoints BOTH equilibrium sets are constant. Everything
// the figures plot is then exact piecewise data — the equilibrium counts
// and average link counts are piecewise constant, and the PoA aggregates
// on each piece are exact evaluations of one fixed equilibrium set (their
// tau-dependence inside a piece is the smooth ratio
// (alpha * links + dist) / opt(alpha), with no set changes).
//
// stream_poa_curve (n up to max_enumeration_order; n = 10 is the paper's
// full 11.7M-topology setting) never materializes records — or even the
// key vector. It profiles every topology once, straight out of the
// orderly generator, into the sharded profile histogram of
// analysis/topology_profile.hpp (distinct profile -> multiplicity; 982
// entries for the n = 10 BCG census). The breakpoints come from the
// distinct profiles' thresholds, and every row is one evaluate_census
// point (analysis/census.hpp) at an exact rational tau, so the output is
// identical across thread counts and memory grows with the number of
// distinct profiles, not with the census.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/census.hpp"
#include "util/rational.hpp"

namespace bnf {

/// One exact threshold of the census curves in TOTAL per-edge cost (tau)
/// units. BCG interval endpoints arrive doubled (tau = 2 * alpha_BCG),
/// UCG endpoints unchanged (tau = alpha_UCG).
struct poa_breakpoint {
  rational tau;
  bool from_bcg{false};
  bool from_ucg{false};

  friend bool operator==(const poa_breakpoint&,
                         const poa_breakpoint&) = default;
};

struct poa_stream_options {
  bool include_ucg{true};
  int threads{0};  // 0 = hardware concurrency
};

/// One evaluated row of the piecewise census: rows alternate open
/// segments and breakpoints in increasing tau order. Segment s is the open
/// tau range between breakpoints s-1 and s (segment 0 starts at 0, the
/// last one is unbounded), evaluated at an exact interior probe: half the
/// first breakpoint, the midpoint of its two breakpoints, or one past the
/// last. Breakpoint rows are evaluated exactly ON the threshold, where the
/// closed-boundary convention of alpha_interval.hpp decides membership.
struct poa_curve_row {
  rational tau;  // exact evaluation point
  bool on_breakpoint{false};
  census_point point;
};

/// The complete piecewise census of one n: breakpoints plus every row's
/// aggregate statistics, with engine diagnostics. rows.size() ==
/// 2 * breakpoints.size() + 1.
struct poa_curve_summary {
  int n{0};
  std::uint64_t topologies{0};
  std::vector<poa_breakpoint> breakpoints;  // sorted, distinct, finite, > 0
  std::vector<poa_curve_row> rows;
  /// Bins of the profile histogram the rows were evaluated from.
  std::uint64_t distinct_profiles{0};
};

/// Run the sharded streaming breakpoint engine. Requires
/// 2 <= n <= max_enumeration_order. Output is byte-identical across
/// thread counts.
[[nodiscard]] poa_curve_summary stream_poa_curve(
    int n, const poa_stream_options& options = {});

}  // namespace bnf
