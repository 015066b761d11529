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

std::vector<census_point> evaluate_census(int n,
                                          std::span<const profile_bin> bins,
                                          std::span<const rational> taus) {
  std::vector<census_point> points;
  points.reserve(taus.size());
  for (const rational& tau : taus) {
    expects(!tau.is_infinite() && tau.num > 0,
            "evaluate_census: requires finite tau > 0");
    const rational alpha_bcg =
        rational::make(tau.num, checked_mul(2, tau.den));
    census_point point;
    point.tau = tau.to_double();
    point.alpha_bcg = alpha_bcg.to_double();
    point.alpha_ucg = point.tau;
    const double opt_bcg = optimal_social_cost(
        connection_game{n, point.alpha_bcg, link_rule::bilateral});
    const double opt_ucg = optimal_social_cost(
        connection_game{n, point.alpha_ucg, link_rule::unilateral});
    equilibrium_accumulator bcg;
    equilibrium_accumulator ucg;
    for (const profile_bin& bin : bins) {
      // Both games pay tau per link in total (2 * alpha_BCG == alpha_UCG).
      const double social =
          point.tau * bin.edges + static_cast<double>(bin.distance_total);
      if (bin.bcg_interval.contains(alpha_bcg)) {
        bcg.add(social / opt_bcg, bin.edges, bin.distance_total,
                bin.multiplicity);
      }
      if (bin.ucg.contains(tau)) {
        ucg.add(social / opt_ucg, bin.edges, bin.distance_total,
                bin.multiplicity);
      }
    }
    point.bcg = bcg.stats(point.tau, opt_bcg);
    point.ucg = ucg.stats(point.tau, opt_ucg);
    points.push_back(point);
  }
  return points;
}

std::vector<census_point> census_sweep(int n, std::span<const double> taus,
                                       const census_options& options) {
  expects(n >= 2 && n <= max_enumeration_order,
          "census_sweep: requires 2 <= n <= " +
              std::to_string(max_enumeration_order));
  std::vector<rational> exact_taus;
  exact_taus.reserve(taus.size());
  for (const double tau : taus) {
    expects(tau > 0, "census_sweep: total edge costs must be positive");
    exact_taus.push_back(exact_rational(tau));
  }
  // The sweep only ever queries the UCG region at the grid points, so the
  // region search can be clamped to the grid's hull: topologies whose
  // Nash window misses the grid entirely cost one root-window test.
  alpha_interval ucg_clamp = alpha_interval::empty_interval();
  if (!exact_taus.empty()) {
    const auto [lo, hi] =
        std::minmax_element(exact_taus.begin(), exact_taus.end());
    ucg_clamp = {*lo, *hi, true, true};
  }
  const profile_histogram histogram = build_profile_histogram(
      n, {.include_ucg = options.include_ucg,
          .ucg_clamp = ucg_clamp,
          .threads = options.threads,
          .shard_span = "census.shard"});
  return evaluate_census(n, histogram.bins, exact_taus);
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
                              profile.bcg_interval,
                              std::move(profile.ucg)};
                        }
                      });
  return records;
}

}  // namespace bnf
