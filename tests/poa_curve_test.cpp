// The breakpoint enumerator: exactness of the piecewise census. Between
// consecutive breakpoints the equilibrium sets must be constant, the
// evaluator must match the census sweep at every grid point, and the n=5
// breakpoint list is pinned as a golden value (the CI job diffs the same
// list from `bilatnet run poa-curve --n 5`).
#include "analysis/poa_curve.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "analysis/topology_profile.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

void expect_identical_stats(const equilibrium_set_stats& a,
                            const equilibrium_set_stats& b,
                            const std::string& where) {
  EXPECT_EQ(a.count, b.count) << where;
  // Bitwise-exact double equality, no tolerance.
  EXPECT_EQ(a.avg_poa, b.avg_poa) << where;
  EXPECT_EQ(a.max_poa, b.max_poa) << where;
  EXPECT_EQ(a.min_poa, b.min_poa) << where;
  EXPECT_EQ(a.avg_edges, b.avg_edges) << where;
}

census_point evaluate_one(int n, const profile_histogram& histogram,
                          const rational& tau) {
  const std::vector<rational> taus = {tau};
  return evaluate_census(n, histogram.bins, taus).front();
}

TEST(PoaCurveTest, EvaluatorMatchesCensusSweepAtEveryGridPoint) {
  // The sweep clamps its UCG search to the grid's hull; evaluating the
  // unclamped histogram at the same exact points must not notice.
  const int n = 6;
  const auto taus = default_tau_grid(n);
  std::vector<rational> exact;
  for (const double tau : taus) exact.push_back(exact_rational(tau));
  const std::vector<census_point> evaluated =
      evaluate_census(n, build_profile_histogram(n).bins, exact);
  const auto points = census_sweep(n, taus, {.include_ucg = true});
  ASSERT_EQ(evaluated.size(), points.size());
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const std::string where = "tau=" + std::to_string(taus[t]);
    EXPECT_EQ(evaluated[t].tau, points[t].tau) << where;
    EXPECT_EQ(evaluated[t].alpha_bcg, points[t].alpha_bcg) << where;
    expect_identical_stats(evaluated[t].bcg, points[t].bcg, where + " bcg");
    expect_identical_stats(evaluated[t].ucg, points[t].ucg, where + " ucg");
  }
}

TEST(PoaCurveTest, EquilibriumSetsAreConstantOnEverySegment) {
  const poa_curve_summary curve = stream_poa_curve(5);
  const profile_histogram histogram = build_profile_histogram(5);
  for (std::size_t s = 0; s <= curve.breakpoints.size(); ++s) {
    const poa_curve_row& row = curve.rows[2 * s];
    ASSERT_FALSE(row.on_breakpoint) << "segment " << s;
    // A second interior probe: nudge toward the segment's right end (or
    // just further right on the unbounded tail).
    const rational other =
        s < curve.breakpoints.size()
            ? midpoint(row.tau, curve.breakpoints[s].tau)
            : rational::make(row.tau.num + row.tau.den, row.tau.den);
    const census_point b = evaluate_one(5, histogram, other);
    EXPECT_EQ(row.point.bcg.count, b.bcg.count) << "segment " << s;
    EXPECT_EQ(row.point.ucg.count, b.ucg.count) << "segment " << s;
    EXPECT_NEAR(row.point.bcg.avg_edges, b.bcg.avg_edges, 1e-12)
        << "segment " << s;
    EXPECT_NEAR(row.point.ucg.avg_edges, b.ucg.avg_edges, 1e-12)
        << "segment " << s;
  }
}

TEST(PoaCurveTest, N5BreakpointsAreGolden) {
  // Mirrors tests/data/poa_curve_n5_breakpoints.csv (the CI golden).
  const poa_curve_summary curve = stream_poa_curve(5);
  const std::vector<std::string> expected_tau = {"1", "2", "3", "4", "8"};
  const std::vector<std::string> expected_games = {"ucg", "bcg+ucg", "ucg",
                                                   "bcg+ucg", "bcg"};
  ASSERT_EQ(curve.breakpoints.size(), expected_tau.size());
  for (std::size_t i = 0; i < expected_tau.size(); ++i) {
    EXPECT_EQ(to_string(curve.breakpoints[i].tau), expected_tau[i]) << i;
    std::string games;
    if (curve.breakpoints[i].from_bcg) games += "bcg";
    if (curve.breakpoints[i].from_ucg) games += games.empty() ? "ucg" : "+ucg";
    EXPECT_EQ(games, expected_games[i]) << i;
  }
}

TEST(PoaCurveTest, BreakpointMembershipUsesClosedBoundaries) {
  // n=5 at tau exactly 1 (alpha_UCG = 1): the UCG's massive indifference
  // tie — every one of the 15 topologies whose interval touches 1 counts,
  // versus 1 (the clique) just below and 3 just above.
  const std::vector<rational> taus = {rational::make(9, 10),
                                      rational::from_int(1),
                                      rational::make(11, 10)};
  const std::vector<census_point> points =
      evaluate_census(5, build_profile_histogram(5).bins, taus);
  EXPECT_EQ(points[0].ucg.count, 1);
  EXPECT_EQ(points[1].ucg.count, 15);
  EXPECT_EQ(points[2].ucg.count, 3);
  // The curve's row ON the breakpoint tau = 1 is the same evaluation.
  const poa_curve_summary curve = stream_poa_curve(5);
  ASSERT_EQ(curve.breakpoints.front().tau, rational::from_int(1));
  EXPECT_TRUE(curve.rows[1].on_breakpoint);
  EXPECT_EQ(curve.rows[1].point.ucg.count, 15);
}

TEST(PoaCurveTest, RationalAndDoubleMembershipAgree) {
  // evaluate_census decides membership at exact rationals; the double
  // overloads of contains, fed the grid value itself, must count the same
  // profiles.
  const profile_histogram histogram = build_profile_histogram(5);
  for (const double tau : {0.53, 1.5, 2.75, 6.0, 33.92}) {
    long long bcg = 0;
    long long ucg = 0;
    for (const profile_bin& bin : histogram.bins) {
      if (bin.bcg_interval.contains(tau / 2.0)) bcg += bin.multiplicity;
      if (bin.ucg.contains(tau)) ucg += bin.multiplicity;
    }
    const census_point exact = evaluate_one(5, histogram, exact_rational(tau));
    EXPECT_EQ(exact.bcg.count, bcg) << tau;
    EXPECT_EQ(exact.ucg.count, ucg) << tau;
  }
}

TEST(PoaCurveTest, BcgOnlyCurveHasNoUcgBreakpoints) {
  const poa_curve_summary curve = stream_poa_curve(5, {.include_ucg = false});
  EXPECT_FALSE(curve.breakpoints.empty());
  for (const poa_breakpoint& entry : curve.breakpoints) {
    EXPECT_TRUE(entry.from_bcg);
    EXPECT_FALSE(entry.from_ucg);
  }
  const census_point probe =
      evaluate_one(5, build_profile_histogram(5, {.include_ucg = false}),
                   rational::from_int(4));
  EXPECT_EQ(probe.ucg.count, 0);
  EXPECT_GT(probe.bcg.count, 0);
}

TEST(PoaCurveTest, EvaluatorRejectsNonPositiveAndInfiniteTau) {
  const profile_histogram histogram = build_profile_histogram(4);
  for (const rational& bad :
       {rational::from_int(0), rational::from_int(-1), rational::make(-3, 2),
        rational::infinity()}) {
    EXPECT_THROW((void)evaluate_one(4, histogram, bad), precondition_error)
        << to_string(bad);
  }
  // Even with no profiles to evaluate.
  const std::vector<rational> zero = {rational::from_int(0)};
  EXPECT_THROW((void)evaluate_census(4, {}, zero), precondition_error);
  const std::vector<double> inf = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)census_sweep(4, inf), precondition_error);
}

}  // namespace
}  // namespace bnf
