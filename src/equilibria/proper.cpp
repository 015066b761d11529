#include "equilibria/proper.hpp"

#include "equilibria/link_convexity.hpp"
#include "equilibria/pairwise_nash.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

bool all_missing_links_strictly_unprofitable(const graph& g, double alpha) {
  expects(alpha > 0,
          "all_missing_links_strictly_unprofitable: requires alpha > 0");
  for (const auto& [u, v] : g.non_edges()) {
    if (static_cast<double>(edge_addition_decrease(g, u, v)) >= alpha) {
      return false;
    }
    if (static_cast<double>(edge_addition_decrease(g, v, u)) >= alpha) {
      return false;
    }
  }
  return true;
}

bool is_proper_equilibrium_certified(const graph& g, double alpha) {
  if (!is_connected(g)) return false;
  return is_pairwise_nash(g, alpha) &&
         all_missing_links_strictly_unprofitable(g, alpha);
}

alpha_interval proper_equilibrium_window(const graph& g) {
  expects(is_connected(g), "proper_equilibrium_window: requires connected");
  const link_convexity_result convexity = analyze_link_convexity(g);
  return hop_count_window(convexity.max_addition_saving, false,
                          convexity.min_deletion_increase, 1);
}

}  // namespace bnf
