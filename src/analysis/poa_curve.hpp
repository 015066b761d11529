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
// Two pipelines produce the same curves, byte for byte:
//
//   * build_poa_curve (n <= 8): materialize per-topology census records,
//     then evaluate_poa_curve answers ANY tau from the cached intervals —
//     the convenience path for interactive queries and small n.
//   * stream_poa_curve (n up to max_enumeration_order; n = 10 is the
//     paper's full 11.7M-topology setting): one profiling pass that never
//     materializes records — or even the key vector. It profiles every
//     topology once, straight out of the orderly generator, into the
//     sharded profile histogram of analysis/topology_profile.hpp (distinct
//     profile -> multiplicity; 982 entries for the n = 10 BCG census). The
//     breakpoints come from the distinct profiles' thresholds, and every
//     row is accumulated once per distinct profile, weighted by its
//     multiplicity, through the exact integer accumulator of
//     analysis/accumulator.hpp. The output is therefore identical across
//     thread counts and to the record pipeline, and memory grows with the
//     number of distinct profiles, not with the census.
#pragma once

#include <cstddef>
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

/// The full census in exact piecewise form. Segment s (for s in
/// 0..breakpoints.size()) is the open tau range between breakpoints s-1
/// and s, with segment 0 starting at 0 and the last segment unbounded;
/// breakpoints themselves are evaluated as points (the closed-boundary
/// convention of alpha_interval.hpp decides their membership).
struct poa_curve {
  int n{0};
  std::vector<census_graph_record> records;
  std::vector<poa_breakpoint> breakpoints;  // sorted, distinct, finite, > 0
};

/// Enumerate the records (one exact stability analysis per topology) and
/// merge their interval endpoints. Requires 2 <= n <= 8 (the record
/// guard; stream_poa_curve covers every enumerable order); set
/// options.include_ucg =
/// false to get BCG-only curves.
[[nodiscard]] poa_curve build_poa_curve(int n,
                                        const census_options& options = {});

/// Census evaluation at total edge cost tau from the cached intervals —
/// equivalent to a census_sweep grid point, with zero stability
/// re-analysis. The rational overload evaluates exactly ON breakpoints.
[[nodiscard]] census_point evaluate_poa_curve(const poa_curve& curve,
                                              double tau);
[[nodiscard]] census_point evaluate_poa_curve(const poa_curve& curve,
                                              const rational& tau);

/// An exact rational probe strictly inside segment `segment` (see
/// poa_curve for the numbering): midpoints between breakpoints, half the
/// first breakpoint, or one past the last. Requires
/// segment <= breakpoints.size().
[[nodiscard]] rational poa_curve_segment_probe(const poa_curve& curve,
                                               std::size_t segment);

// --- the streaming engine -------------------------------------------------

struct poa_stream_options {
  bool include_ucg{true};
  int threads{0};  // 0 = hardware concurrency
};

/// One evaluated row of the piecewise census: rows alternate open
/// segments (evaluated at an exact interior probe — the same probes
/// poa_curve_segment_probe yields) and breakpoints (evaluated exactly ON
/// the threshold), in increasing tau order.
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
  std::vector<poa_breakpoint> breakpoints;
  std::vector<poa_curve_row> rows;
  /// Bins of the streaming engine's profile histogram (0 on the record
  /// path, which keeps one record per topology).
  std::uint64_t distinct_profiles{0};
};

/// Run the sharded streaming breakpoint engine. Requires
/// 2 <= n <= max_enumeration_order. Output is byte-identical to
/// summarize_poa_curve(build_poa_curve(n)) wherever both are defined, and
/// across thread counts.
[[nodiscard]] poa_curve_summary stream_poa_curve(
    int n, const poa_stream_options& options = {});

/// Evaluate a materialized curve into the same summary form the streaming
/// engine emits (records path; the equivalence tests and the n <= 8
/// convenience callers use this).
[[nodiscard]] poa_curve_summary summarize_poa_curve(const poa_curve& curve);

}  // namespace bnf
