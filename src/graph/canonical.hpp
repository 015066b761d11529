// Canonical labeling, isomorphism testing and automorphism orbits — a
// compact nauty-style engine (equitable partition refinement + branch
// search with automorphism orbit pruning). It is the workhorse behind the
// exhaustive non-isomorphic graph enumeration that regenerates the paper's
// Figures 2 and 3, and behind isomorphism-deduplicated equilibrium sets.
//
// The canonical form is the lexicographically *maximal* relabeled
// adjacency certificate over all vertex orderings explored by the search;
// two graphs are isomorphic iff their canonical certificates coincide.
// The winning certificate's rows ARE the canonical graph's adjacency rows,
// so every entry point reads its answer straight from them: canonical_form
// builds `canonical` from the rows, while canonical_key64 and the orderly
// generator's canonical_deletion_key pack the key from them without any
// relabeled copy.
//
// The search starts from the unit partition made equitable. Refinement is
// isomorphism-invariant, so every Aut(g)-orbit lies inside one cell of that
// root partition, and the vertex at the last canonical position always
// lies in its last cell (the search only splits cells in place).
// canonical_deletion_key uses this to reject most non-canonical
// augmentations after one refinement, before any branching.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace bnf {

/// Automorphism generators in a graph's own labels: for each entry perm,
/// perm[v] is the image of vertex v and only the first order() slots are
/// meaningful.
using automorphism_generators =
    std::vector<std::array<std::uint8_t, max_vertices>>;

/// Result of canonicalization.
struct canon_result {
  /// labeling[p] = original vertex placed at canonical position p.
  std::vector<int> labeling;
  /// The graph relabeled into canonical order.
  graph canonical;
  /// orbits[v] = smallest vertex in v's orbit under the discovered
  /// automorphism group (complete unless the generator cap is hit, which
  /// does not occur for graphs of this size in practice).
  std::vector<int> orbits;
  /// Number of automorphism generators discovered during the search.
  int generators_found{0};
  /// The discovered generators themselves, in ORIGINAL labels. By the
  /// standard partition-search argument they generate the full
  /// automorphism group whenever the generator cap is not hit (it never
  /// is for graphs of this size), which is what the orderly enumerator's
  /// subset-orbit pruning relies on.
  automorphism_generators generators;
};

/// Compute the canonical form of g. O(poly) for the refinement; worst-case
/// exponential search is tamed by orbit pruning (vertex-transitive graphs
/// on <= 64 vertices canonicalize in microseconds).
[[nodiscard]] canon_result canonical_form(const graph& g);

/// Canonical 64-bit key (upper-triangle packing of the canonical graph).
/// Requires order <= 11. Equal keys + equal order <=> isomorphic.
[[nodiscard]] std::uint64_t canonical_key64(const graph& g);

/// The orderly generator's acceptance test. Let v = g.order() - 1 be the
/// augmenting vertex. Returns g's canonical key iff v lies in the same
/// Aut(g)-orbit as the canonical deletion vertex (the vertex at g's last
/// canonical position), and nullopt otherwise — the same verdict and key
/// as comparing canonical_form(g).orbits at v and at labeling[v], then
/// reading canonical.key64(). When v is outside the last cell of the
/// refined root partition the answer is nullopt with no search at all.
/// `generators` is a workspace whose capacity is reused: it is
/// overwritten, and after an acceptance it holds generators of Aut(g)
/// (as canon_result::generators). The reject paths allocate nothing once
/// the workspace has warmed up. Requires 1 <= order <= 11.
[[nodiscard]] std::optional<std::uint64_t> canonical_deletion_key(
    const graph& g, automorphism_generators& generators);

/// Isomorphism test via cheap invariants then canonical certificates.
[[nodiscard]] bool are_isomorphic(const graph& a, const graph& b);

/// Orbits of the automorphism group: orbit representative per vertex.
[[nodiscard]] std::vector<int> automorphism_orbits(const graph& g);

/// Number of distinct orbits (== 1 iff vertex-transitive as detected).
[[nodiscard]] int orbit_count(const graph& g);

}  // namespace bnf
