#include "equilibria/pairwise_stability.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>
#include <utility>

#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

alpha_interval hop_count_window(long long lo, bool lo_closed, long long hi,
                                long long den) {
  alpha_interval window;
  window.lo = rational::make(lo, den);
  window.lo_closed = lo_closed && lo > 0;
  if (hi < infinite_delta) {
    window.hi = rational::make(hi, den);
  } else {
    window.hi_closed = false;
  }
  return window;
}

long long edge_deletion_increase(const graph& g, int u, int v) {
  expects(g.has_edge(u, v), "edge_deletion_increase: (u,v) must be an edge");
  const distance_summary before = distance_sum(g, u);
  const graph cut = g.without_edge(u, v);
  const distance_summary after = distance_sum(cut, u);
  if (after.unreached > before.unreached) return infinite_delta;
  return after.sum - before.sum;
}

long long edge_addition_decrease(const graph& g, int u, int v) {
  expects(u != v && !g.has_edge(u, v),
          "edge_addition_decrease: (u,v) must be a non-edge");
  const distance_summary before = distance_sum(g, u);
  const graph joined = g.with_edge(u, v);
  const distance_summary after = distance_sum(joined, u);
  if (before.unreached > after.unreached) return infinite_delta;
  return before.sum - after.sum;
}

namespace {

// The addition identity for both endpoints of a missing link ab, as
// {saving of a, saving of b}. The r = 0 term is the far endpoint itself,
// which is not adjacent, so each saving starts at 1. Rows are padded to
// the common depth, so every call has the same trip count; radii past
// ecc - 2 contribute nothing.
std::pair<long long, long long> addition_savings(const distance_balls& balls,
                                                 int a, int b) {
  const std::span<const std::uint64_t> ball_a = balls.balls(a);
  const std::span<const std::uint64_t> ball_b = balls.balls(b);
  long long saving_a = 1;
  long long saving_b = 1;
  for (std::size_t r = 1; r + 2 <= static_cast<std::size_t>(balls.depth());
       ++r) {
    saving_a += popcount(ball_b[r] & ~ball_a[r + 1]);
    saving_b += popcount(ball_a[r] & ~ball_b[r + 1]);
  }
  return {saving_a, saving_b};
}

// closer[c] = closer(a,c) for every neighbour c of a; returns twice(a).
std::uint64_t closer_sets(const graph& g, const distance_balls& balls, int a,
                          std::array<std::uint64_t, max_vertices>& closer) {
  const std::span<const std::uint64_t> ball_a = balls.balls(a);
  std::uint64_t once = 0;
  std::uint64_t twice = 0;
  for_each_bit(g.neighbors(a), [&](int c) {
    const std::span<const std::uint64_t> ball_c = balls.balls(c);
    std::uint64_t targets = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(balls.depth()); ++r) {
      targets |= ball_c[r] & ~ball_a[r];
    }
    closer[static_cast<std::size_t>(c)] = targets;
    twice |= once & targets;
    once |= targets;
  });
  return twice;
}

// The fallback for an edge in no triangle: one BFS from a without b.
long long deletion_increase_by_bfs(const graph& g, const distance_balls& balls,
                                   int a, int b) {
  const distance_summary cut =
      distance_sum_with_row(g, a, g.neighbors(a) & ~bit(b));
  if (cut.unreached > 0) return infinite_delta;
  return cut.sum - balls.sum(a);
}

}  // namespace

int single_link_deltas(const graph& g, const distance_balls& balls,
                       link_change change, std::span<long long> out) {
  expects(balls.connected() && balls.order() == g.order(),
          "single_link_deltas: requires the balls of a connected g");
  const int n = g.order();
  expects(out.size() >= static_cast<std::size_t>(n) * n,
          "single_link_deltas: out must hold n * n entries");
  const auto at = [&](int a, int b) -> long long& {
    return out[static_cast<std::size_t>(a * n + b)];
  };
  int fallback_bfs = 0;
  std::array<std::uint64_t, max_vertices> closer{};
  for (int a = 0; a < n; ++a) {
    const std::uint64_t row = g.neighbors(a);
    if (change == link_change::addition) {
      // One fused call per missing link fills both endpoints.
      for_each_bit(g.vertex_mask() & ~row & ~low_bits(a + 1), [&](int b) {
        const auto [saving_a, saving_b] = addition_savings(balls, a, b);
        at(a, b) = saving_a;
        at(b, a) = saving_b;
      });
      continue;
    }
    std::uint64_t in_triangle = 0;
    for_each_bit(row, [&](int b) {
      if ((g.neighbors(b) & row) != 0) in_triangle |= bit(b);
    });
    if (in_triangle != 0) {
      const std::uint64_t twice = closer_sets(g, balls, a, closer);
      for_each_bit(in_triangle, [&](int b) {
        at(a, b) = popcount(closer[static_cast<std::size_t>(b)] & ~twice);
      });
    }
    for_each_bit(row & ~in_triangle, [&](int b) {
      ++fallback_bfs;
      at(a, b) = deletion_increase_by_bfs(g, balls, a, b);
    });
  }
  return fallback_bfs;
}

bcg_summary bcg_profile(const graph& g) {
  return bcg_profile(g, distance_balls(g));
}

bcg_summary bcg_profile(const graph& g, const distance_balls& balls) {
  // One BFS per vertex yields every ball; the identities in the header
  // turn them into the distance total, every addition saving and every
  // deletion increase of an edge in a triangle.
  expects(balls.connected(),
          "compute_stability_record: requires a connected graph");
  expects(balls.order() == g.order(), "bcg_profile: balls of another graph");
  const int n = g.order();
  bcg_summary summary;
  summary.distance_total = balls.total();

  // Additions. The boundary case is decided against the running
  // alpha_min: a missing link whose least-interested saving raises it
  // starts the verdict afresh, and any attaining link with asymmetric
  // savings makes the boundary unstable.
  long long alpha_min = 0;
  bool boundary_stable = true;
  for (int a = 0; a < n; ++a) {
    for_each_bit(g.vertex_mask() & ~g.neighbors(a) & ~low_bits(a + 1),
                 [&](int b) {
                   const auto [dec_a, dec_b] = addition_savings(balls, a, b);
                   const long long least = std::min(dec_a, dec_b);
                   if (least > alpha_min) {
                     alpha_min = least;
                     boundary_stable = true;
                   }
                   if (least == alpha_min && std::max(dec_a, dec_b) > least) {
                     boundary_stable = false;
                   }
                 });
  }

  // Deletions. Severing ab moves b itself away from a, so no increase is
  // below 1 and alpha_max = 1 ends the search. Edges in a triangle go
  // first; the BFS fallback then runs only while an edge in no triangle
  // can still undercut them.
  long long alpha_max = infinite_delta;
  std::array<std::uint64_t, max_vertices> closer{};
  std::array<std::uint64_t, max_vertices> triangle_free{};
  for (int a = 0; a < n && alpha_max > 1; ++a) {
    const std::uint64_t row = g.neighbors(a);
    std::uint64_t in_triangle = 0;
    for_each_bit(row, [&](int b) {
      if ((g.neighbors(b) & row) != 0) in_triangle |= bit(b);
    });
    triangle_free[static_cast<std::size_t>(a)] = row & ~in_triangle;
    if (in_triangle == 0) continue;
    const std::uint64_t twice = closer_sets(g, balls, a, closer);
    for_each_bit(in_triangle, [&](int b) {
      alpha_max = std::min<long long>(
          alpha_max, popcount(closer[static_cast<std::size_t>(b)] & ~twice));
    });
  }
  for (int a = 0; a < n && alpha_max > 1; ++a) {
    for_each_bit(triangle_free[static_cast<std::size_t>(a)], [&](int b) {
      ++summary.fallback_bfs;
      const long long increase = deletion_increase_by_bfs(g, balls, a, b);
      if (increase < infinite_delta) {
        alpha_max = std::min(alpha_max, increase);
      } else {
        // A bridge: b loses a's side as surely as a loses b's.
        triangle_free[static_cast<std::size_t>(b)] &= ~bit(a);
      }
    });
  }
  summary.window = hop_count_window(alpha_min, boundary_stable, alpha_max, 1);
  return summary;
}

alpha_interval compute_stability_record(const graph& g) {
  return bcg_profile(g).window;
}

bool is_pairwise_stable(const graph& g, double alpha) {
  expects(alpha > 0, "is_pairwise_stable: requires alpha > 0");
  return !find_stability_violation(g, alpha).has_value();
}

std::string stability_violation::describe() const {
  std::ostringstream out;
  switch (type) {
    case kind::severance:
      out << "endpoint " << u << " strictly gains by severing (" << u << ","
          << v << ")";
      break;
    case kind::addition:
      out << "pair (" << u << "," << v
          << ") blocks: adding the link strictly helps one endpoint and "
             "weakly helps the other";
      break;
    case kind::disconnected:
      out << "graph is disconnected";
      break;
  }
  return out.str();
}

std::optional<stability_violation> find_stability_violation(const graph& g,
                                                            double alpha) {
  expects(alpha > 0, "find_stability_violation: requires alpha > 0");
  if (!is_connected(g)) {
    return stability_violation{stability_violation::kind::disconnected, -1,
                               -1};
  }
  // Severance: an endpoint strictly gains iff alpha > increase. An
  // infinite increase (bridge) is never worth severing at any alpha.
  for (const auto& [u, v] : g.edges()) {
    const long long inc_u = edge_deletion_increase(g, u, v);
    if (inc_u < infinite_delta && static_cast<double>(inc_u) < alpha) {
      return stability_violation{stability_violation::kind::severance, u, v};
    }
    const long long inc_v = edge_deletion_increase(g, v, u);
    if (inc_v < infinite_delta && static_cast<double>(inc_v) < alpha) {
      return stability_violation{stability_violation::kind::severance, v, u};
    }
  }
  // Addition: blocks iff one endpoint strictly gains (dec > alpha) and the
  // other does not strictly lose (dec >= alpha).
  for (const auto& [u, v] : g.non_edges()) {
    const auto dec_u = static_cast<double>(edge_addition_decrease(g, u, v));
    const auto dec_v = static_cast<double>(edge_addition_decrease(g, v, u));
    const bool blocks = (dec_u > alpha && dec_v >= alpha) ||
                        (dec_v > alpha && dec_u >= alpha);
    if (blocks) {
      return stability_violation{stability_violation::kind::addition, u, v};
    }
  }
  return std::nullopt;
}

}  // namespace bnf
