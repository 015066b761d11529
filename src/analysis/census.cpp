#include "analysis/census.hpp"

#include <algorithm>
#include <string>

#include "analysis/topology_profile.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace bnf {

std::vector<census_point> census_sweep(int n, std::span<const double> taus,
                                       const census_options& options) {
  expects(n >= 2 && n <= max_enumeration_order,
          "census_sweep: requires 2 <= n <= " +
              std::to_string(max_enumeration_order));
  for (const double tau : taus) {
    expects(tau > 0, "census_sweep: total edge costs must be positive");
  }

  // Precompute the optimal social cost per grid point and game, plus the
  // exact rational value of each grid alpha (membership tests below are
  // then cheap exact cross-multiplications instead of per-test double
  // decompositions).
  const std::size_t grid = taus.size();
  std::vector<double> opt_bcg(grid);
  std::vector<double> opt_ucg(grid);
  std::vector<rational> alpha_bcg_exact(grid);
  std::vector<rational> alpha_ucg_exact(grid);
  for (std::size_t t = 0; t < grid; ++t) {
    opt_bcg[t] = optimal_social_cost(
        connection_game{n, taus[t] / 2.0, link_rule::bilateral});
    opt_ucg[t] = optimal_social_cost(
        connection_game{n, taus[t], link_rule::unilateral});
    alpha_bcg_exact[t] = exact_rational(taus[t] / 2.0);
    alpha_ucg_exact[t] = exact_rational(taus[t]);
  }
  // The sweep only ever queries the UCG region at the grid points, so the
  // region search can be clamped to the grid's hull: topologies whose
  // Nash window misses the grid entirely cost one root-window test.
  alpha_interval ucg_clamp = alpha_interval::empty_interval();
  if (grid > 0) {
    ucg_clamp = {*std::min_element(alpha_ucg_exact.begin(),
                                   alpha_ucg_exact.end()),
                 *std::max_element(alpha_ucg_exact.begin(),
                                   alpha_ucg_exact.end()),
                 true, true};
  }

  // ONE stability analysis per topology, folded into the shared profile
  // histogram; the grid loop below is pure exact interval membership over
  // the distinct profiles, so the sweep's cost does not depend on how fine
  // the tau grid is.
  const profile_histogram histogram = build_profile_histogram(
      n, {.include_ucg = options.include_ucg,
          .ucg_clamp = ucg_clamp,
          .threads = options.threads,
          .shard_span = "census.shard"});

  std::vector<census_point> points(grid);
  for (std::size_t t = 0; t < grid; ++t) {
    const double alpha_bcg = taus[t] / 2.0;
    const double alpha_ucg = taus[t];
    equilibrium_accumulator bcg;
    equilibrium_accumulator ucg;
    for (const profile_bin& bin : histogram.bins) {
      const double dist = static_cast<double>(bin.distance_total);
      if (bin.bcg_interval.contains(alpha_bcg_exact[t])) {
        const double social = 2.0 * alpha_bcg * bin.edges + dist;
        bcg.add(social / opt_bcg[t], bin.edges, bin.distance_total,
                bin.multiplicity);
      }
      if (bin.ucg.contains(alpha_ucg_exact[t])) {
        const double social = alpha_ucg * bin.edges + dist;
        ucg.add(social / opt_ucg[t], bin.edges, bin.distance_total,
                bin.multiplicity);
      }
    }
    points[t].tau = taus[t];
    points[t].alpha_bcg = alpha_bcg;
    points[t].alpha_ucg = alpha_ucg;
    points[t].bcg = bcg.stats(taus[t], opt_bcg[t]);
    points[t].ucg = ucg.stats(taus[t], opt_ucg[t]);
  }
  return points;
}

std::vector<census_graph_record> build_census_records(
    int n, const census_options& options) {
  expects(n >= 2 && n <= 8,
          "build_census_records: materialized records guard n <= 8 (use "
          "stream_poa_curve beyond)");
  const auto keys = all_graph_keys(n, {.connected_only = true,
                                       .threads = options.threads});
  std::vector<census_graph_record> records(keys.size());

  const int threads =
      options.threads > 0 ? options.threads : default_thread_count();
  parallel_for_chunks(keys.size(), threads,
                      [&](std::size_t begin, std::size_t end) {
                        ucg_region_workspace scratch;
                        for (std::size_t i = begin; i < end; ++i) {
                          const graph g = graph::from_key64(n, keys[i]);
                          // Records keep the FULL region (no clamp): they
                          // back the breakpoint enumerator, which needs
                          // every threshold.
                          topology_profile profile = profile_topology(
                              g, options.include_ucg, alpha_interval{},
                              scratch);
                          records[i] = census_graph_record{
                              keys[i],
                              profile.edges,
                              profile.distance_total,
                              profile.bcg,
                              profile.bcg_interval,
                              std::move(profile.ucg)};
                        }
                      });
  return records;
}

}  // namespace bnf
