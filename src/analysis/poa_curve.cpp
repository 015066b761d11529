#include "analysis/poa_curve.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "analysis/topology_profile.hpp"
#include "gen/enumerate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

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
/// depends only on the SET of noted thresholds.
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

/// Interior probe of segment `segment` over a sorted breakpoint list (see
/// poa_curve_row for the numbering).
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
  // all topologies.
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

  // One row per segment probe and per breakpoint, in increasing tau order.
  std::vector<rational> taus;
  taus.reserve(2 * summary.breakpoints.size() + 1);
  for (std::size_t s = 0; s <= summary.breakpoints.size(); ++s) {
    taus.push_back(segment_probe(summary.breakpoints, s));
    if (s < summary.breakpoints.size()) {
      taus.push_back(summary.breakpoints[s].tau);
    }
  }

  // The span keeps the name of the former per-shard accumulation pass,
  // which the benchmark tooling sums as the accumulation time.
  std::vector<census_point> points;
  {
    obs::trace_span accumulate_span("poa.pass2.shard");
    points = evaluate_census(n, histogram.bins, taus);
  }

  obs::trace_span reduce_span("poa.reduce");
  summary.rows.reserve(taus.size());
  for (std::size_t r = 0; r < taus.size(); ++r) {
    summary.rows.push_back({taus[r], r % 2 == 1, points[r]});
  }
  return summary;
}

}  // namespace bnf
