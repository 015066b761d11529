// Pairwise stability (Jackson–Wolinsky; paper Definition 3) and the
// interval characterization of Lemma 2.
//
// A connected graph G is pairwise stable for link cost alpha iff
//     alpha_min(G) < alpha <= alpha_max(G),
// where alpha_min is the largest distance saving of the *least-interested*
// endpoint over all missing links, and alpha_max is the smallest distance
// increase any endpoint suffers from severing one of its links (bridges
// impose no constraint: severing one costs infinitely much).
//
// All deltas are exact integers (hop counts); infinities are explicit.
//
// The window comes from one BFS per vertex. Each BFS keeps its cumulative
// balls B(v,r) = {j : d(v,j) <= r} (graph/paths.hpp, distance_balls), and
// two identities read the single-link deltas off the balls in integer
// popcounts:
//
// * Addition. Link ab changes only a's row, and a shortest path from a
//   uses the new link only as its first edge, so d'(a,j) =
//   min(d(a,j), 1 + d(b,j)). Target j then contributes
//   max(0, d(a,j) - 1 - d(b,j)) to a's saving, which is the number of
//   radii r >= 0 with d(b,j) <= r and d(a,j) > r + 1. Counting by r:
//     saving(a; ab) = sum_{r=0}^{ecc(a)-2} |B(b,r) \ B(a,r+1)|.
//
// * Deletion of an edge in a triangle. Let closer(a,c), for a neighbour
//   c of a, be the targets c lies one step closer to than a:
//     closer(a,c) = union_r B(c,r) \ B(a,r),
//   and twice(a) the targets two or more neighbours of a lie closer to.
//   Severing ab can only lengthen paths, and only for targets whose sole
//   closer neighbour is b: any other closer neighbour c reaches j by a
//   shortest path that avoids a, so a -> c -> ... -> j survives. Such a
//   target j lengthens by at least 1, and by exactly 1 when a and b
//   share a neighbour c: a shortest path from b to j never revisits a
//   (else d(b,j) > d(a,j)), so a -> c -> b -> ... -> j has length
//   d(a,j) + 1 in G - ab. Hence
//     increase(a; ab) = |closer(a,b) \ twice(a)|.
//
// An edge in no triangle falls back to one row-replacement BFS per
// endpoint (distance_sum_with_row); a bridge gives infinite_delta.
//
// Both games read the identities. The BCG window (bcg_profile) needs only
// the binding deltas: severing ab moves b itself away from a, so no
// increase is below 1, the triangle edges go first, the fallback runs
// only while they leave alpha_max above 1, and a bridge settles at its
// first BFS. The distance total is the sum of the base BFS. The UCG region
// search needs every delta, and single_link_deltas fills them all from
// the same balls.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "equilibria/alpha_interval.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"

namespace bnf {

/// Sentinel for an infinite distance delta (severing a bridge / linking
/// across components). Large enough to dominate, small enough to add.
inline constexpr long long infinite_delta = 1LL << 40;

/// The window lo/den .. hi/den over hop-count deltas, as every window in
/// equilibria/ is stored: lo is closed iff `lo_closed` and lo > 0 (the
/// domain is alpha > 0); hi is closed, or +infinity and open when hi is
/// infinite_delta (no deletion binds).
[[nodiscard]] alpha_interval hop_count_window(long long lo, bool lo_closed,
                                              long long hi, long long den);

/// Distance-cost increase to endpoint u from severing edge (u,v):
///   sum_j d(u,j)(G - uv) - sum_j d(u,j)(G).
/// Returns infinite_delta if the removal disconnects u from v's side.
/// Requires (u,v) in E.
[[nodiscard]] long long edge_deletion_increase(const graph& g, int u, int v);

/// Distance-cost saving to endpoint u from adding edge (u,v):
///   sum_j d(u,j)(G) - sum_j d(u,j)(G + uv).
/// Returns infinite_delta if u and v lie in different components.
/// Requires (u,v) not in E.
[[nodiscard]] long long edge_addition_decrease(const graph& g, int u, int v);

/// The Lemma 2 stability window of a connected graph as an exact
/// interval: (alpha_min, alpha_max], with integer hop-count endpoints and
/// hi = +infinity (open) when no deletion binds (e.g. trees). Definition 3
/// deviates from the open Lemma 2 interval in one measure-zero case: at
/// alpha == alpha_min > 0, if EVERY missing link whose least-interested
/// saving attains alpha_min has BOTH endpoints saving exactly alpha_min,
/// then nobody strictly gains and the graph is stable, so lo is closed.
/// The window may be empty (lo > hi, or the open point (k, k]) and may be
/// the single point [k, k]. Requires connected g (disconnected graphs are
/// never pairwise stable against bridging adds; see is_pairwise_stable).
[[nodiscard]] alpha_interval compute_stability_record(const graph& g);

/// What the stability window's pass over a graph yields.
struct bcg_summary {
  alpha_interval window;
  /// Sum of d(i,j) over ordered pairs; equals total_distance(g).sum.
  long long distance_total{0};
  /// Row-replacement BFS spent on edges in no triangle (work tally).
  int fallback_bfs{0};
};

/// compute_stability_record plus the distance total from the same BFS
/// balls (requires connected g).
[[nodiscard]] bcg_summary bcg_profile(const graph& g);
/// Same, from balls the caller already built: `balls` must be
/// distance_balls(g), so one set serves both games (analysis/
/// topology_profile hands it to the UCG region search too).
[[nodiscard]] bcg_summary bcg_profile(const graph& g,
                                      const distance_balls& balls);

/// Which single-link deviation single_link_deltas measures.
enum class link_change { addition, severance };

/// The single-link deltas of every ordered pair of a connected g, read off
/// `balls` (distance_balls(g)) by the identities above into the row-major
/// n * n table `out`. For link_change::addition, out[a*n+b] is a's saving
/// from adding the missing link ab; for link_change::severance, it is a's
/// increase from severing the edge ab, infinite_delta for a bridge. The
/// entries of the other kind, and the diagonal, are left as they are.
/// Returns the row-replacement BFS spent: one per endpoint of every edge
/// in no triangle (none for additions). The BCG window reads the same
/// identities through bcg_profile, which stops early instead of filling
/// the table; the UCG region search (equilibria/ucg_nash.hpp) seeds its
/// root window and every player's content interval from this table.
int single_link_deltas(const graph& g, const distance_balls& balls,
                       link_change change, std::span<long long> out);

/// Identity, kept only because perfbench/measure.cpp still calls
/// to_alpha_interval(compute_stability_record(g)) and perfbench/ stays
/// frozen until ROADMAP item 4's benchmark change, which deletes this.
[[nodiscard]] inline alpha_interval to_alpha_interval(
    const alpha_interval& window) {
  return window;
}

/// Direct Definition 3 check. Disconnected graphs return false: with two
/// components some bridging pair strictly gains by linking; with three or
/// more the definition is vacuously satisfied only because all costs are
/// infinite, a degenerate case the paper excludes by studying connected
/// topologies.
[[nodiscard]] bool is_pairwise_stable(const graph& g, double alpha);

/// A witness that (g, alpha) violates pairwise stability.
struct stability_violation {
  enum class kind { severance, addition, disconnected };
  kind type{};
  int u{-1};
  int v{-1};
  [[nodiscard]] std::string describe() const;
};

/// First violation found, or nullopt if pairwise stable.
[[nodiscard]] std::optional<stability_violation> find_stability_violation(
    const graph& g, double alpha);

}  // namespace bnf
