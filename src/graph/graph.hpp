// The graph kernel: simple undirected graphs on up to 64 vertices with
// bitset adjacency rows. Everything the connection games need — BFS,
// stability checks, enumeration — runs on word operations over these rows.
//
// The 64-vertex cap covers the paper end to end: the largest construction
// is the Hoffman–Singleton graph (50 vertices) and exhaustive enumeration
// tops out at 10–11 vertices.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

/// Largest supported vertex count.
inline constexpr int max_vertices = 64;

/// Largest vertex count for which the upper-triangle adjacency packs into a
/// single 64-bit canonical key (C(11,2) = 55 bits).
inline constexpr int max_key64_vertices = 11;

/// An undirected simple graph on n <= 64 vertices. Vertices are 0..n-1;
/// adjacency is stored as one uint64_t neighbour mask per vertex.
class graph {
 public:
  /// The edgeless graph on n vertices. Requires 0 <= n <= 64.
  explicit graph(int n = 0);

  /// Build from an explicit edge list. Requires valid distinct endpoints.
  graph(int n, std::initializer_list<std::pair<int, int>> edges);
  static graph from_edges(int n, std::span<const std::pair<int, int>> edges);
  /// Build from adjacency rows: rows[v] is v's neighbour mask and the
  /// order is rows.size(). Requires at most 64 rows forming a simple
  /// undirected graph (symmetric, no self-loops, no bits beyond the order).
  static graph from_rows(std::span<const std::uint64_t> rows);

  [[nodiscard]] int order() const noexcept { return n_; }
  [[nodiscard]] int size() const noexcept;  // number of edges

  /// Mask of all vertices: bits 0..n-1.
  [[nodiscard]] std::uint64_t vertex_mask() const noexcept {
    return low_bits(n_);
  }

  [[nodiscard]] bool has_edge(int u, int v) const;
  void add_edge(int u, int v);
  void remove_edge(int u, int v);
  /// Flip edge (u,v); returns true if the edge exists after the toggle.
  bool toggle_edge(int u, int v);
  /// Rewrite v's neighbourhood to exactly `mask`, updating the other
  /// endpoints' rows. Requires mask within vertex_mask() and without v.
  void set_neighbors(int v, std::uint64_t mask);

  // The two hottest accessors of the equilibrium kernels (every BFS
  // frontier step reads a row) are defined inline so the bounds check
  // folds into the caller's loop instead of costing a call per row.
  [[nodiscard]] int degree(int v) const {
    check_vertex(v);
    return popcount(adj_[static_cast<std::size_t>(v)]);
  }
  /// Neighbour mask of v (bit w set iff edge (v,w) present).
  [[nodiscard]] std::uint64_t neighbors(int v) const {
    check_vertex(v);
    return adj_[static_cast<std::size_t>(v)];
  }

  /// Copies with a single edge added/removed (no mutation).
  [[nodiscard]] graph with_edge(int u, int v) const;
  [[nodiscard]] graph without_edge(int u, int v) const;

  /// All edges as (u,v) pairs with u < v, lexicographic.
  [[nodiscard]] std::vector<std::pair<int, int>> edges() const;
  /// All non-adjacent distinct pairs (u,v), u < v.
  [[nodiscard]] std::vector<std::pair<int, int>> non_edges() const;

  /// Complement graph (same vertex set, complemented adjacency).
  [[nodiscard]] graph complement() const;

  /// Relabeled copy: vertex v of *this becomes perm[v] in the result.
  /// `perm` must be a permutation of 0..n-1.
  [[nodiscard]] graph permuted(std::span<const int> perm) const;

  /// Subgraph induced by the vertex set `mask`, relabeled to 0..k-1 in
  /// increasing original order.
  [[nodiscard]] graph induced(std::uint64_t mask) const;

  /// Copy with one extra isolated vertex appended (new index = n).
  [[nodiscard]] graph with_vertex() const;

  /// Pack the upper triangle (pairs (i,j), i<j, row-major) into a 64-bit
  /// key. Requires order() <= 11. Together with `order`, identifies the
  /// labeled graph exactly. Same as pack_key64 over the rows.
  [[nodiscard]] std::uint64_t key64() const;
  /// Inverse of key64 for a given order.
  static graph from_key64(int n, std::uint64_t key);

  /// graph6 encoding (printable ASCII; n <= 62), for interop with nauty
  /// tooling and compact fixtures.
  [[nodiscard]] std::string to_graph6() const;
  static graph from_graph6(const std::string& text);

  friend bool operator==(const graph& a, const graph& b) = default;

 private:
  void check_vertex(int v) const {
    expects(v >= 0 && v < n_, "graph: vertex index out of range");
  }
  void check_pair(int u, int v) const;

  int n_{0};
  std::vector<std::uint64_t> adj_;
};

/// The key64 packing of the graph whose adjacency rows are `rows`, read
/// straight from the rows without building a graph (the canonical search
/// hands out its certificate this way). Requires rows.size() <= 11; bits
/// at or beyond rows.size() are ignored.
[[nodiscard]] std::uint64_t pack_key64(std::span<const std::uint64_t> rows);

/// Human-readable one-line description: "n=5 m=4 edges={(0,1),...}".
[[nodiscard]] std::string to_string(const graph& g);

}  // namespace bnf
