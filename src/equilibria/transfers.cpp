#include "equilibria/transfers.hpp"

#include <algorithm>

#include "graph/paths.hpp"
#include "util/contracts.hpp"

namespace bnf {

alpha_interval compute_transfer_stability_interval(const graph& g) {
  expects(is_connected(g),
          "compute_transfer_stability_interval: requires connected graph");
  // Both bounds are joint surpluses over 2. A missing link with
  // dec_u + dec_v == 2*alpha does not block (ties never block), so t_min
  // is closed.
  long long joint_saving = 0;
  for (const auto& [u, v] : g.non_edges()) {
    joint_saving = std::max(joint_saving, edge_addition_decrease(g, u, v) +
                                              edge_addition_decrease(g, v, u));
  }
  long long joint_loss = infinite_delta;
  for (const auto& [u, v] : g.edges()) {
    const long long inc_u = edge_deletion_increase(g, u, v);
    const long long inc_v = edge_deletion_increase(g, v, u);
    if (inc_u >= infinite_delta || inc_v >= infinite_delta) continue;
    joint_loss = std::min(joint_loss, inc_u + inc_v);
  }
  return hop_count_window(joint_saving, true, joint_loss, 2);
}

bool is_transfer_stable(const graph& g, double alpha) {
  expects(alpha > 0, "is_transfer_stable: requires alpha > 0");
  if (!is_connected(g)) return false;
  return compute_transfer_stability_interval(g).contains(alpha);
}

transfer_relation classify_transfer_relation(const graph& g, double alpha) {
  const bool plain = is_pairwise_stable(g, alpha);
  const bool with_transfers = is_transfer_stable(g, alpha);
  if (plain && with_transfers) return transfer_relation::both_stable;
  if (plain) return transfer_relation::only_plain_stable;
  if (with_transfers) return transfer_relation::only_transfer_stable;
  return transfer_relation::neither;
}

}  // namespace bnf
