#include "analysis/poa_curve.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "analysis/topology_profile.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

// Membership is exact (rational or exact-double comparisons); only the
// aggregated statistics are evaluated in floating point, through the one
// shared accumulator the census sweep and the streaming engine also use.
template <typename Alpha>
census_point evaluate_at(const poa_curve& curve, const Alpha& alpha_bcg,
                         const Alpha& alpha_ucg, double alpha_bcg_value,
                         double alpha_ucg_value) {
  census_point point;
  point.tau = alpha_ucg_value;
  point.alpha_bcg = alpha_bcg_value;
  point.alpha_ucg = alpha_ucg_value;
  const double opt_bcg = optimal_social_cost(
      connection_game{curve.n, alpha_bcg_value, link_rule::bilateral});
  const double opt_ucg = optimal_social_cost(
      connection_game{curve.n, alpha_ucg_value, link_rule::unilateral});
  const double bcg_edge_cost = 2.0 * alpha_bcg_value;
  equilibrium_accumulator bcg;
  equilibrium_accumulator ucg;
  for (const census_graph_record& record : curve.records) {
    if (record.bcg_interval.contains(alpha_bcg)) {
      const double social = bcg_edge_cost * record.edges +
                            static_cast<double>(record.distance_total);
      bcg.add(social / opt_bcg, record.edges, record.distance_total);
    }
    if (record.ucg.contains(alpha_ucg)) {
      const double social = alpha_ucg_value * record.edges +
                            static_cast<double>(record.distance_total);
      ucg.add(social / opt_ucg, record.edges, record.distance_total);
    }
  }
  point.bcg = bcg.stats(bcg_edge_cost, opt_bcg);
  point.ucg = ucg.stats(alpha_ucg_value, opt_ucg);
  return point;
}

void note_breakpoint(std::vector<poa_breakpoint>& breakpoints,
                     const rational& tau, bool from_bcg) {
  if (tau.is_infinite() || tau.num <= 0) return;
  poa_breakpoint entry{tau, from_bcg, !from_bcg};
  breakpoints.push_back(entry);
}

/// BCG thresholds live in alpha_BCG = tau / 2 units; fold into tau.
rational doubled(const rational& alpha) {
  if (alpha.is_infinite()) return alpha;
  return rational::make(checked_mul(2, alpha.num), alpha.den);
}

/// Both pipelines collect thresholds through this one helper, so the
/// breakpoint set of the streaming engine is definitionally the set the
/// record path produces.
void note_profile_breakpoints(std::vector<poa_breakpoint>& raw,
                              const alpha_interval& bcg_interval,
                              const alpha_interval_set& ucg) {
  if (!bcg_interval.empty()) {
    note_breakpoint(raw, doubled(bcg_interval.lo), true);
    note_breakpoint(raw, doubled(bcg_interval.hi), true);
  }
  for (const alpha_interval& part : ucg.parts()) {
    note_breakpoint(raw, part.lo, false);
    note_breakpoint(raw, part.hi, false);
  }
}

/// Sort by tau and collapse duplicates, OR-ing the game flags. The result
/// depends only on the SET of noted thresholds, so any sharding of the
/// collection phase merges to the same list.
std::vector<poa_breakpoint> merge_breakpoints(std::vector<poa_breakpoint> raw) {
  std::sort(raw.begin(), raw.end(),
            [](const poa_breakpoint& a, const poa_breakpoint& b) {
              return a.tau < b.tau;
            });
  std::vector<poa_breakpoint> merged;
  for (const poa_breakpoint& entry : raw) {
    if (!merged.empty() && merged.back().tau == entry.tau) {
      merged.back().from_bcg |= entry.from_bcg;
      merged.back().from_ucg |= entry.from_ucg;
    } else {
      merged.push_back(entry);
    }
  }
  return merged;
}

/// Interior probe of segment `segment` over a sorted breakpoint list (the
/// shared definition behind poa_curve_segment_probe and the streaming
/// engine's row grid).
rational segment_probe(const std::vector<poa_breakpoint>& breakpoints,
                       std::size_t segment) {
  if (breakpoints.empty()) return rational::from_int(1);
  if (segment == 0) {
    const rational& first = breakpoints.front().tau;
    return rational::make(first.num, checked_mul(2, first.den));
  }
  const rational& left = breakpoints[segment - 1].tau;
  if (segment == breakpoints.size()) {
    return rational::make(checked_add(left.num, left.den), left.den);
  }
  return midpoint(left, breakpoints[segment].tau);
}

}  // namespace

poa_curve build_poa_curve(int n, const census_options& options) {
  poa_curve curve;
  curve.n = n;
  curve.records = build_census_records(n, options);

  std::vector<poa_breakpoint> raw;
  for (const census_graph_record& record : curve.records) {
    note_profile_breakpoints(raw, record.bcg_interval, record.ucg);
  }
  curve.breakpoints = merge_breakpoints(std::move(raw));
  return curve;
}

census_point evaluate_poa_curve(const poa_curve& curve, double tau) {
  expects(tau > 0, "evaluate_poa_curve: requires tau > 0");
  return evaluate_at(curve, tau / 2.0, tau, tau / 2.0, tau);
}

census_point evaluate_poa_curve(const poa_curve& curve, const rational& tau) {
  expects(!tau.is_infinite() && tau.num > 0,
          "evaluate_poa_curve: requires finite tau > 0");
  const rational alpha_bcg =
      rational::make(tau.num, checked_mul(2, tau.den));
  return evaluate_at(curve, alpha_bcg, tau, alpha_bcg.to_double(),
                     tau.to_double());
}

rational poa_curve_segment_probe(const poa_curve& curve, std::size_t segment) {
  expects(segment <= curve.breakpoints.size(),
          "poa_curve_segment_probe: segment out of range");
  return segment_probe(curve.breakpoints, segment);
}

poa_curve_summary summarize_poa_curve(const poa_curve& curve) {
  poa_curve_summary summary;
  summary.n = curve.n;
  summary.topologies = curve.records.size();
  summary.breakpoints = curve.breakpoints;
  summary.rows.reserve(2 * curve.breakpoints.size() + 1);
  for (std::size_t s = 0; s <= curve.breakpoints.size(); ++s) {
    const rational probe = segment_probe(curve.breakpoints, s);
    summary.rows.push_back({probe, false, evaluate_poa_curve(curve, probe)});
    if (s < curve.breakpoints.size()) {
      const rational& tau = curve.breakpoints[s].tau;
      summary.rows.push_back({tau, true, evaluate_poa_curve(curve, tau)});
    }
  }
  return summary;
}

// --- the streaming engine -------------------------------------------------

namespace {

/// The evaluation grid shared by every row: exact alphas for membership,
/// plus the double-precision evaluation constants (identical to the ones
/// evaluate_poa_curve derives, so the two pipelines agree to the bit).
struct row_grid {
  std::vector<rational> tau;        // == alpha_UCG, strictly increasing
  std::vector<rational> alpha_bcg;  // tau / 2, exact
  std::vector<bool> on_breakpoint;
  std::vector<double> bcg_edge_cost;  // 2 * alpha_bcg_value == tau value
  std::vector<double> ucg_edge_cost;  // alpha_UCG value
  std::vector<double> opt_bcg;
  std::vector<double> opt_ucg;

  [[nodiscard]] std::size_t size() const { return tau.size(); }

  void add_row(int n, const rational& tau_exact, bool breakpoint_row) {
    const rational alpha = rational::make(
        tau_exact.num, checked_mul(2, tau_exact.den));
    const double alpha_bcg_value = alpha.to_double();
    const double alpha_ucg_value = tau_exact.to_double();
    tau.push_back(tau_exact);
    alpha_bcg.push_back(alpha);
    on_breakpoint.push_back(breakpoint_row);
    bcg_edge_cost.push_back(2.0 * alpha_bcg_value);
    ucg_edge_cost.push_back(alpha_ucg_value);
    opt_bcg.push_back(optimal_social_cost(
        connection_game{n, alpha_bcg_value, link_rule::bilateral}));
    opt_ucg.push_back(optimal_social_cost(
        connection_game{n, alpha_ucg_value, link_rule::unilateral}));
  }
};

/// First row whose alpha lies inside the lower boundary (alphas strictly
/// increasing; exact comparisons, mirroring alpha_interval::contains).
std::size_t range_begin(std::span<const rational> alphas, const rational& lo,
                        bool lo_closed) {
  const auto it = std::partition_point(
      alphas.begin(), alphas.end(), [&](const rational& alpha) {
        const int cmp = compare(alpha, lo);
        return cmp < 0 || (cmp == 0 && !lo_closed);
      });
  return static_cast<std::size_t>(it - alphas.begin());
}

/// One past the last row inside the upper boundary.
std::size_t range_end(std::span<const rational> alphas, const rational& hi,
                      bool hi_closed) {
  if (hi.is_infinite()) return alphas.size();
  const auto it = std::partition_point(
      alphas.begin(), alphas.end(), [&](const rational& alpha) {
        const int cmp = compare(alpha, hi);
        return cmp < 0 || (cmp == 0 && hi_closed);
      });
  return static_cast<std::size_t>(it - alphas.begin());
}

/// Fold one distinct profile into the per-row accumulators: a binary
/// search finds the contiguous row range each certificate covers, then
/// each covered row receives the profile's PoA at that row's exact
/// evaluation point, weighted by the profile's multiplicity.
void accumulate_profile(const row_grid& grid, const profile_bin& bin,
                        std::vector<equilibrium_accumulator>& bcg_acc,
                        std::vector<equilibrium_accumulator>& ucg_acc) {
  const double dist = static_cast<double>(bin.distance_total);
  const alpha_interval& bcg_interval = bin.bcg_interval;
  if (!bcg_interval.empty()) {
    const std::size_t begin = range_begin(grid.alpha_bcg, bcg_interval.lo,
                                          bcg_interval.lo_closed);
    const std::size_t end =
        range_end(grid.alpha_bcg, bcg_interval.hi, bcg_interval.hi_closed);
    for (std::size_t r = begin; r < end; ++r) {
      const double social = grid.bcg_edge_cost[r] * bin.edges + dist;
      bcg_acc[r].add(social / grid.opt_bcg[r], bin.edges, bin.distance_total,
                     bin.multiplicity);
    }
  }
  for (const alpha_interval& part : bin.ucg.parts()) {
    const std::size_t begin = range_begin(grid.tau, part.lo, part.lo_closed);
    const std::size_t end = range_end(grid.tau, part.hi, part.hi_closed);
    for (std::size_t r = begin; r < end; ++r) {
      const double social = grid.ucg_edge_cost[r] * bin.edges + dist;
      ucg_acc[r].add(social / grid.opt_ucg[r], bin.edges, bin.distance_total,
                     bin.multiplicity);
    }
  }
}

}  // namespace

poa_curve_summary stream_poa_curve(int n, const poa_stream_options& options) {
  expects(n >= 2 && n <= max_enumeration_order,
          "stream_poa_curve: requires 2 <= n <= " +
              std::to_string(max_enumeration_order));

  // One profiling pass: every topology is profiled once, as the orderly
  // generator emits it, into the per-shard profile histograms. The full
  // UCG region (no clamp) is kept, since the breakpoint list needs every
  // threshold.
  const profile_histogram histogram = build_profile_histogram(
      n, {.include_ucg = options.include_ucg,
          .threads = options.threads,
          .shard_span = "poa.pass1.shard"});
  ensures(histogram.topologies ==
              known_connected_graph_counts[static_cast<std::size_t>(n)],
          "stream_poa_curve: census size mismatch vs OEIS A001349 — orderly "
          "generator bug");
  obs::get_counter(obs::names::profile_arena_bytes).add(histogram.bytes);

  poa_curve_summary summary;
  summary.n = n;
  summary.topologies = histogram.topologies;
  summary.distinct_profiles = histogram.bins.size();

  // The thresholds of the distinct profiles are exactly the thresholds of
  // all topologies, so the merged list is the record path's list.
  {
    obs::trace_span merge_span("poa.merge_breakpoints");
    std::vector<poa_breakpoint> all_thresholds;
    for (const profile_bin& bin : histogram.bins) {
      note_profile_breakpoints(all_thresholds, bin.bcg_interval, bin.ucg);
    }
    summary.breakpoints = merge_breakpoints(std::move(all_thresholds));
    merge_span.arg("breakpoints",
                   static_cast<std::uint64_t>(summary.breakpoints.size()));
  }

  // --- the evaluation grid: one row per segment probe and per breakpoint,
  // in increasing tau order.
  row_grid grid;
  for (std::size_t s = 0; s <= summary.breakpoints.size(); ++s) {
    grid.add_row(n, segment_probe(summary.breakpoints, s), false);
    if (s < summary.breakpoints.size()) {
      grid.add_row(n, summary.breakpoints[s].tau, true);
    }
  }

  // Accumulate every row once per distinct profile. The span keeps the
  // name of the former per-shard accumulation pass, which the benchmark
  // tooling sums as the accumulation time.
  std::vector<equilibrium_accumulator> bcg_total(grid.size());
  std::vector<equilibrium_accumulator> ucg_total(grid.size());
  {
    obs::trace_span accumulate_span("poa.pass2.shard");
    for (const profile_bin& bin : histogram.bins) {
      accumulate_profile(grid, bin, bcg_total, ucg_total);
    }
  }

  obs::trace_span reduce_span("poa.reduce");
  summary.rows.reserve(grid.size());
  for (std::size_t r = 0; r < grid.size(); ++r) {
    poa_curve_row row;
    row.tau = grid.tau[r];
    row.on_breakpoint = grid.on_breakpoint[r];
    row.point.tau = grid.ucg_edge_cost[r];
    row.point.alpha_bcg = grid.bcg_edge_cost[r] / 2.0;
    row.point.alpha_ucg = grid.ucg_edge_cost[r];
    row.point.bcg = bcg_total[r].stats(grid.bcg_edge_cost[r], grid.opt_bcg[r]);
    row.point.ucg = ucg_total[r].stats(grid.ucg_edge_cost[r], grid.opt_ucg[r]);
    summary.rows.push_back(std::move(row));
  }
  return summary;
}

}  // namespace bnf
