#include "equilibria/pairwise_stability.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "graph/paths.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

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

stability_record compute_stability_record(const graph& g) {
  expects(is_connected(g),
          "compute_stability_record: requires a connected graph");

  // All deltas are single-link toggles incident to the measured endpoint,
  // so one base BFS per vertex plus one row-replacement BFS per (pair,
  // endpoint) covers everything — no graph copies, no re-derived base
  // sums (distance_sum_with_row in graph/paths.hpp), no allocation.
  const int n = g.order();
  std::array<long long, max_vertices> base{};
  for (int v = 0; v < n; ++v) {
    base[static_cast<std::size_t>(v)] = distance_sum(g, v).sum;
  }
  const auto addition_decrease = [&](int a, int b) {
    return base[static_cast<std::size_t>(a)] -
           distance_sum_with_row(g, a, g.neighbors(a) | bit(b)).sum;
  };
  const auto deletion_increase = [&](int a, int b) {
    const distance_summary cut =
        distance_sum_with_row(g, a, g.neighbors(a) & ~bit(b));
    if (cut.unreached > 0) return infinite_delta;
    return cut.sum - base[static_cast<std::size_t>(a)];
  };

  // One pass over the vertex pairs. The boundary case is decided against
  // the running alpha_min: a missing link whose least-interested saving
  // raises it starts the verdict afresh, and any attaining link with
  // asymmetric savings makes the boundary unstable.
  long long alpha_min = 0;
  long long alpha_max = infinite_delta;
  bool boundary_stable = true;
  for (int u = 0; u < n; ++u) {
    const std::uint64_t row = g.neighbors(u);
    for_each_bit(g.vertex_mask() & ~low_bits(u + 1), [&](int v) {
      if (has_bit(row, v)) {
        const long long binding =
            std::min(deletion_increase(u, v), deletion_increase(v, u));
        alpha_max = std::min(alpha_max, binding);
        return;
      }
      const long long dec_u = addition_decrease(u, v);
      const long long dec_v = addition_decrease(v, u);
      const long long least = std::min(dec_u, dec_v);
      if (least > alpha_min) {
        alpha_min = least;
        boundary_stable = true;
      }
      if (least == alpha_min && std::max(dec_u, dec_v) > least) {
        boundary_stable = false;
      }
    });
  }
  return {static_cast<double>(alpha_min),
          alpha_max < infinite_delta ? static_cast<double>(alpha_max)
                                     : std::numeric_limits<double>::infinity(),
          boundary_stable};
}

stability_interval compute_stability_interval(const graph& g) {
  return compute_stability_record(g).interval();
}

alpha_interval to_alpha_interval(const stability_record& record) {
  alpha_interval window;
  window.lo = rational::from_int(static_cast<long long>(record.alpha_min));
  window.lo_closed = record.boundary_stable && record.alpha_min > 0;
  if (std::isinf(record.alpha_max)) {
    window.hi = rational::infinity();
    window.hi_closed = false;
  } else {
    window.hi = rational::from_int(static_cast<long long>(record.alpha_max));
    window.hi_closed = true;
  }
  return window;
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
