// Shortest paths and distance aggregates over the bitset graph kernel.
// All distances are hop counts (the paper's QoS measure); unreachable
// pairs are reported explicitly rather than with sentinel arithmetic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/contracts.hpp"

namespace bnf {

/// Distance used to mark unreachable pairs in dense matrices. Any finite
/// distance on <= 64 vertices is < 64, so 127 is safely out of band.
inline constexpr int unreachable_distance = 127;

/// Aggregate of single-source BFS: sum over *reached* vertices (excluding
/// the source itself) and the count of unreached vertices.
struct distance_summary {
  long long sum{0};
  int unreached{0};

  [[nodiscard]] bool all_reached() const noexcept { return unreached == 0; }
  friend bool operator==(const distance_summary&,
                         const distance_summary&) = default;
};

/// Single-source BFS distances. out[v] = hops from src, or
/// unreachable_distance. Returns the summary (sum + unreached count).
distance_summary bfs_distances(const graph& g, int src,
                               std::array<std::int8_t, max_vertices>& out);

/// Sum of distances from src to all other vertices (and unreached count)
/// without materializing the distance vector.
[[nodiscard]] distance_summary distance_sum(const graph& g, int src);

/// distance_sum from src when src's neighbourhood row is replaced by
/// `row_src` and every other vertex keeps its row from g — the one-sided
/// deviation primitive of both games (toggling links incident to src
/// changes only src's row). Stale bits pointing back at src in other
/// rows are harmless: BFS starts at src, so they can only re-reach an
/// already-visited vertex. Requires row_src to avoid bit(src) and stay
/// within the vertex mask.
[[nodiscard]] distance_summary distance_sum_with_row(const graph& g, int src,
                                                     std::uint64_t row_src);

/// Dense all-pairs distance matrix (BFS from every source).
class distance_matrix {
 public:
  explicit distance_matrix(const graph& g);

  [[nodiscard]] int order() const noexcept { return n_; }
  /// Distance in hops, or unreachable_distance.
  [[nodiscard]] int at(int u, int v) const;
  /// Sum over ordered pairs of finite distances; meaningful iff connected.
  [[nodiscard]] long long total() const noexcept { return total_; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }

 private:
  int n_{0};
  bool connected_{true};
  long long total_{0};
  std::vector<std::int8_t> cells_;
};

/// All-pairs distances as cumulative BFS balls, one BFS per source:
/// balls(v)[r] is the mask of vertices within distance r of v. A ball is
/// the union of the BFS layers 0..r, so set algebra on balls answers
/// distance questions without a matrix of hop counts:
///   d(v,j) <= r  <=>  j in balls(v)[r],
///   sum_j d(v,j) = sum_{r=0}^{ecc(v)-1} (|component| - |balls(v)[r]|).
/// Rows are stored up to depth(), the largest eccentricity of any source
/// within its component; past its own eccentricity a row stays at v's
/// component.
class distance_balls {
 public:
  explicit distance_balls(const graph& g);

  [[nodiscard]] int order() const noexcept { return n_; }
  /// Largest eccentricity within a component (0 for K1 and edgeless
  /// graphs).
  [[nodiscard]] int depth() const noexcept { return depth_; }
  /// Balls of v for radii 0..depth().
  [[nodiscard]] std::span<const std::uint64_t> balls(int v) const {
    check_vertex(v);
    return {rows_[static_cast<std::size_t>(v)].data(),
            static_cast<std::size_t>(depth_) + 1};
  }
  /// Sum of distances from v to the vertices it reaches (distance_sum).
  [[nodiscard]] long long sum(int v) const {
    check_vertex(v);
    return sums_[static_cast<std::size_t>(v)];
  }
  /// Sum over ordered pairs of finite distances (total_distance).
  [[nodiscard]] long long total() const noexcept { return total_; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }

 private:
  void check_vertex(int v) const {
    expects(v >= 0 && v < n_, "distance_balls: vertex index out of range");
  }

  int n_{0};
  int depth_{0};
  bool connected_{true};
  long long total_{0};
  std::array<long long, max_vertices> sums_{};
  // Left uninitialised because zeroing 32 KB per graph would cost more
  // than the BFS: only radii 0..depth_ of rows 0..n_-1 are read, and the
  // constructor writes exactly those.
  std::array<std::array<std::uint64_t, max_vertices>, max_vertices> rows_;
};

/// Sum of d(i,j) over all ordered pairs; second member false if the graph
/// is disconnected (in which case the paper's total is infinite).
struct total_distance_result {
  long long sum{0};
  bool connected{true};
};
[[nodiscard]] total_distance_result total_distance(const graph& g);

[[nodiscard]] bool is_connected(const graph& g);

/// Connected components as vertex masks, ordered by smallest member.
[[nodiscard]] std::vector<std::uint64_t> components(const graph& g);

/// Mask of vertices reachable from src (including src).
[[nodiscard]] std::uint64_t reachable_set(const graph& g, int src);

/// Eccentricity of v: max distance to any vertex; unreachable_distance if
/// the graph is disconnected (from v's perspective).
[[nodiscard]] int eccentricity(const graph& g, int v);

/// Diameter (max eccentricity); unreachable_distance if disconnected.
/// Requires order >= 1. The diameter of K1 is 0.
[[nodiscard]] int diameter(const graph& g);

/// Radius (min eccentricity); unreachable_distance if disconnected.
[[nodiscard]] int radius(const graph& g);

/// Girth: length of the shortest cycle, or 0 if the graph is acyclic.
[[nodiscard]] int girth(const graph& g);

/// True iff connected and acyclic (n >= 1, m = n-1).
[[nodiscard]] bool is_tree(const graph& g);

/// True iff edge (u,v) is a bridge (its removal disconnects u from v).
[[nodiscard]] bool is_bridge(const graph& g, int u, int v);

}  // namespace bnf
