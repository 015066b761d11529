#include "graph/canonical.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "graph/metrics.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

// Cap on stored automorphism generators. Pruning degrades gracefully (but
// stays sound) if exceeded; graphs on <= 64 vertices discover far fewer.
constexpr int max_generators = 512;

// An ordered partition of the vertices: `elems` lists vertices, cells are
// maximal runs with is_start marking each cell's first position, and
// `cells` counts them (the partition is discrete when cells == n).
struct ordered_partition {
  int n{0};
  int cells{0};
  std::array<std::uint8_t, max_vertices> elems{};
  std::array<bool, max_vertices> is_start{};
};

struct union_find {
  std::array<int, max_vertices> parent{};

  explicit union_find(int n) {
    for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void merge(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;  // smaller id becomes root
  }
};

// One canonical search over g. Construct, call search(refined_root()),
// then read the winning certificate and the discovered automorphisms.
class canon_search {
 public:
  // `generators` receives the discovered automorphisms; it is cleared here
  // and must outlive the search.
  canon_search(const graph& g, automorphism_generators& generators)
      : n_(g.order()), generators_(generators), orbits_(n_) {
    for (int v = 0; v < n_; ++v) {
      rows_[static_cast<std::size_t>(v)] = g.neighbors(v);
    }
    generators_.clear();
  }

  // The unit partition made equitable: the root of the search tree.
  [[nodiscard]] ordered_partition refined_root() const {
    ordered_partition root;
    root.n = n_;
    root.cells = n_ > 0 ? 1 : 0;
    for (int i = 0; i < n_; ++i) {
      root.elems[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
      root.is_start[static_cast<std::size_t>(i)] = (i == 0);
    }
    refine(root, low_bits(n_));
    return root;
  }

  // The winning certificate: rows[p] is the neighbour mask of canonical
  // position p, i.e. the canonical graph's adjacency rows.
  [[nodiscard]] std::span<const std::uint64_t> canonical_rows() const {
    return {best_rows_.data(), static_cast<std::size_t>(n_)};
  }

  // Original vertex placed at canonical position p.
  [[nodiscard]] int canonical_vertex(int p) const {
    return best_leaf_[static_cast<std::size_t>(p)];
  }

  // Smallest vertex in v's orbit under the discovered automorphisms.
  [[nodiscard]] int orbit(int v) { return orbits_.find(v); }

 private:
  // --- refinement ---------------------------------------------------------

  // Upper bound on outstanding refinement scopes: every split of a cell
  // into k fragments pushes k scopes, and the total number of fragments
  // created across one refinement pass is < 2n <= 128.
  static constexpr int max_worklist = 4 * max_vertices;

  // Make the partition equitable, starting from `initial_scope` as the
  // first splitting scope (1-dimensional Weisfeiler-Leman refinement).
  // A discrete partition cannot split further, so the scopes still queued
  // then are dropped unread.
  void refine(ordered_partition& p, std::uint64_t initial_scope) const {
    std::array<std::uint64_t, max_worklist> worklist{};
    int work_count = 0;
    worklist[static_cast<std::size_t>(work_count++)] = initial_scope;

    while (work_count > 0 && p.cells < p.n) {
      const std::uint64_t scope = worklist[static_cast<std::size_t>(--work_count)];
      int pos = 0;
      while (pos < p.n) {
        int cell_end = pos + 1;
        while (cell_end < p.n && !p.is_start[static_cast<std::size_t>(cell_end)]) {
          ++cell_end;
        }
        const int cell_size = cell_end - pos;
        if (cell_size > 1) {
          split_cell(p, pos, cell_end, scope, worklist, work_count);
        }
        pos = cell_end;
      }
    }
  }

  // Split cell [begin, end) by neighbour counts into `scope`, descending.
  // New fragments are appended to the worklist.
  void split_cell(ordered_partition& p, int begin, int end,
                  std::uint64_t scope,
                  std::array<std::uint64_t, max_worklist>& worklist,
                  int& work_count) const {
    std::array<std::uint8_t, max_vertices> verts{};
    std::array<std::int8_t, max_vertices> counts{};
    const int size = end - begin;
    bool uniform = true;
    for (int i = 0; i < size; ++i) {
      const int v = p.elems[static_cast<std::size_t>(begin + i)];
      verts[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
      counts[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
          popcount(rows_[static_cast<std::size_t>(v)] & scope));
      if (counts[static_cast<std::size_t>(i)] != counts[0]) uniform = false;
    }
    if (uniform) return;

    // Insertion sort by count descending, stable (cells are tiny).
    for (int i = 1; i < size; ++i) {
      const std::uint8_t v = verts[static_cast<std::size_t>(i)];
      const std::int8_t c = counts[static_cast<std::size_t>(i)];
      int j = i - 1;
      while (j >= 0 && counts[static_cast<std::size_t>(j)] < c) {
        verts[static_cast<std::size_t>(j + 1)] = verts[static_cast<std::size_t>(j)];
        counts[static_cast<std::size_t>(j + 1)] = counts[static_cast<std::size_t>(j)];
        --j;
      }
      verts[static_cast<std::size_t>(j + 1)] = v;
      counts[static_cast<std::size_t>(j + 1)] = c;
    }

    std::uint64_t fragment_mask = 0;
    for (int i = 0; i < size; ++i) {
      p.elems[static_cast<std::size_t>(begin + i)] = verts[static_cast<std::size_t>(i)];
      fragment_mask |= bit(verts[static_cast<std::size_t>(i)]);
      const bool boundary =
          (i + 1 == size) ||
          (counts[static_cast<std::size_t>(i + 1)] != counts[static_cast<std::size_t>(i)]);
      if (boundary) {
        ensures(work_count < static_cast<int>(worklist.size()),
                "canonical: refinement worklist overflow");
        worklist[static_cast<std::size_t>(work_count++)] = fragment_mask;
        if (i + 1 < size) {
          p.is_start[static_cast<std::size_t>(begin + i + 1)] = true;
          ++p.cells;
        }
        fragment_mask = 0;
      }
    }
  }

  // --- search -------------------------------------------------------------

  // First smallest non-singleton cell; returns {begin, end} or {-1, -1}.
  static std::pair<int, int> target_cell(const ordered_partition& p) {
    int best_begin = -1;
    int best_size = max_vertices + 1;
    int pos = 0;
    while (pos < p.n) {
      int cell_end = pos + 1;
      while (cell_end < p.n && !p.is_start[static_cast<std::size_t>(cell_end)]) {
        ++cell_end;
      }
      const int size = cell_end - pos;
      if (size > 1 && size < best_size) {
        best_size = size;
        best_begin = pos;
      }
      pos = cell_end;
    }
    if (best_begin < 0) return {-1, -1};
    return {best_begin, best_begin + best_size};
  }

 public:
  void search(const ordered_partition& p) {
    const auto [begin, end] = target_cell(p);
    if (begin < 0) {
      process_leaf(p);
      return;
    }

    // Candidates in ascending vertex id for determinism.
    std::array<std::uint8_t, max_vertices> candidates{};
    const int count = end - begin;
    for (int i = 0; i < count; ++i) {
      candidates[static_cast<std::size_t>(i)] =
          p.elems[static_cast<std::size_t>(begin + i)];
    }
    std::sort(candidates.begin(), candidates.begin() + count);

    std::uint64_t tried = 0;
    for (int i = 0; i < count; ++i) {
      const int v = candidates[static_cast<std::size_t>(i)];
      if (tried != 0 && orbit_equivalent_to_tried(v, tried)) continue;
      tried |= bit(v);

      ordered_partition child = p;
      individualize(child, begin, end, v);
      refine(child, bit(v));
      path_[static_cast<std::size_t>(depth_++)] = static_cast<std::uint8_t>(v);
      search(child);
      --depth_;
    }
  }

 private:
  // Move v to the front of its cell and make it a singleton.
  static void individualize(ordered_partition& p, int begin, int end, int v) {
    for (int i = begin; i < end; ++i) {
      if (p.elems[static_cast<std::size_t>(i)] == v) {
        for (int j = i; j > begin; --j) {
          p.elems[static_cast<std::size_t>(j)] =
              p.elems[static_cast<std::size_t>(j - 1)];
        }
        p.elems[static_cast<std::size_t>(begin)] = static_cast<std::uint8_t>(v);
        p.is_start[static_cast<std::size_t>(begin + 1)] = true;
        ++p.cells;
        return;
      }
    }
    ensures(false, "canonical: individualized vertex missing from cell");
  }

  // True if v maps into `tried` under the group generated by the recorded
  // automorphisms that fix every vertex individualized on the current path.
  // Sound pruning: exploring v would replay an already-explored subtree.
  bool orbit_equivalent_to_tried(int v, std::uint64_t tried) const {
    std::uint64_t closure = bit(v);
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& perm : generators_) {
        bool fixes_path = true;
        for (int d = 0; d < depth_; ++d) {
          const int u = path_[static_cast<std::size_t>(d)];
          if (perm[static_cast<std::size_t>(u)] != u) {
            fixes_path = false;
            break;
          }
        }
        if (!fixes_path) continue;
        std::uint64_t image = 0;
        for_each_bit(closure, [&](int w) {
          image |= bit(perm[static_cast<std::size_t>(w)]);
        });
        if ((image | closure) != closure) {
          closure |= image;
          grew = true;
        }
      }
      if (closure & tried) return true;
    }
    return (closure & tried) != 0;
  }

  // --- leaves -------------------------------------------------------------

  // Certificate: adjacency rows of the relabeled graph, compared
  // lexicographically (row 0 word first).
  void leaf_certificate(const ordered_partition& p,
                        std::array<std::uint64_t, max_vertices>& rows) const {
    std::array<std::uint8_t, max_vertices> position{};
    for (int pos = 0; pos < n_; ++pos) {
      position[p.elems[static_cast<std::size_t>(pos)]] =
          static_cast<std::uint8_t>(pos);
    }
    for (int pos = 0; pos < n_; ++pos) {
      const int v = p.elems[static_cast<std::size_t>(pos)];
      std::uint64_t row = 0;
      for_each_bit(rows_[static_cast<std::size_t>(v)], [&](int w) {
        row |= bit(position[static_cast<std::size_t>(w)]);
      });
      rows[static_cast<std::size_t>(pos)] = row;
    }
  }

  void process_leaf(const ordered_partition& p) {
    std::array<std::uint64_t, max_vertices> rows{};
    leaf_certificate(p, rows);

    if (!have_best_) {
      best_rows_ = rows;
      best_leaf_ = p.elems;
      have_best_ = true;
      return;
    }

    const auto compare = [&]() {
      for (int i = 0; i < n_; ++i) {
        if (rows[static_cast<std::size_t>(i)] !=
            best_rows_[static_cast<std::size_t>(i)]) {
          return rows[static_cast<std::size_t>(i)] <
                         best_rows_[static_cast<std::size_t>(i)]
                     ? -1
                     : 1;
        }
      }
      return 0;
    }();

    if (compare > 0) {
      best_rows_ = rows;
      best_leaf_ = p.elems;
      return;
    }
    if (compare < 0) return;

    // Equal certificates: derive the automorphism mapping this leaf's
    // labeling onto the best leaf's labeling.
    std::array<std::uint8_t, max_vertices> perm{};
    for (int pos = 0; pos < n_; ++pos) {
      perm[p.elems[static_cast<std::size_t>(pos)]] =
          best_leaf_[static_cast<std::size_t>(pos)];
    }
    for (int v = 0; v < n_; ++v) {
      orbits_.merge(v, perm[static_cast<std::size_t>(v)]);
    }
    if (static_cast<int>(generators_.size()) < max_generators) {
      generators_.push_back(perm);
    }
  }

  int n_;
  // g's adjacency rows, read without the graph's per-call bounds check.
  std::array<std::uint64_t, max_vertices> rows_{};
  // Vertices individualized on the current path, path_[0..depth_).
  std::array<std::uint8_t, max_vertices> path_{};
  int depth_{0};
  bool have_best_{false};
  std::array<std::uint64_t, max_vertices> best_rows_{};
  std::array<std::uint8_t, max_vertices> best_leaf_{};
  automorphism_generators& generators_;
  union_find orbits_;
};

// True iff v lies in the last cell of p.
bool in_last_cell(const ordered_partition& p, int v) {
  for (int pos = p.n - 1; pos >= 0; --pos) {
    if (p.elems[static_cast<std::size_t>(pos)] == v) return true;
    if (p.is_start[static_cast<std::size_t>(pos)]) return false;
  }
  return false;
}

}  // namespace

canon_result canonical_form(const graph& g) {
  canon_result result;
  const int n = g.order();
  canon_search search(g, result.generators);
  search.search(search.refined_root());

  result.labeling.resize(static_cast<std::size_t>(n));
  result.orbits.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    result.labeling[static_cast<std::size_t>(v)] = search.canonical_vertex(v);
    result.orbits[static_cast<std::size_t>(v)] = search.orbit(v);
  }
  result.canonical = graph::from_rows(search.canonical_rows());
  result.generators_found = static_cast<int>(result.generators.size());
  return result;
}

std::uint64_t canonical_key64(const graph& g) {
  expects(g.order() <= max_key64_vertices,
          "canonical_key64: requires order <= 11");
  automorphism_generators generators;
  canon_search search(g, generators);
  search.search(search.refined_root());
  return pack_key64(search.canonical_rows());
}

std::optional<std::uint64_t> canonical_deletion_key(
    const graph& g, automorphism_generators& generators) {
  const int n = g.order();
  expects(n >= 1 && n <= max_key64_vertices,
          "canonical_deletion_key: requires 1 <= order <= 11");
  const int v = n - 1;
  canon_search search(g, generators);
  const ordered_partition root = search.refined_root();
  // Orbits lie inside cells and the deletion vertex lies in the last cell,
  // so outside it v cannot share the deletion vertex's orbit.
  if (!in_last_cell(root, v)) return std::nullopt;
  search.search(root);
  if (search.orbit(v) != search.orbit(search.canonical_vertex(n - 1))) {
    return std::nullopt;
  }
  return pack_key64(search.canonical_rows());
}

bool are_isomorphic(const graph& a, const graph& b) {
  if (a.order() != b.order()) return false;
  if (a.size() != b.size()) return false;
  if (degree_sequence(a) != degree_sequence(b)) return false;
  return canonical_form(a).canonical == canonical_form(b).canonical;
}

std::vector<int> automorphism_orbits(const graph& g) {
  return canonical_form(g).orbits;
}

int orbit_count(const graph& g) {
  const auto orbits = automorphism_orbits(g);
  int count = 0;
  for (std::size_t v = 0; v < orbits.size(); ++v) {
    if (orbits[v] == static_cast<int>(v)) ++count;
  }
  return count;
}

}  // namespace bnf
