#include "analysis/census.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "analysis/sweep.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(CensusTest, CheapLinksOnlyCompleteIsStable) {
  // Strictly below both crossovers (alpha_BCG = 0.45, alpha_UCG = 0.9):
  // the complete graph is the unique equilibrium in both games. (At
  // alpha exactly 1 the UCG admits many indifference equilibria.)
  const std::array<double, 1> taus{0.9};
  const auto points = census_sweep(6, taus, {.include_ucg = true});
  ASSERT_EQ(points.size(), 1U);
  EXPECT_EQ(points[0].bcg.count, 1);  // Lemma 4: unique stable graph
  EXPECT_NEAR(points[0].bcg.avg_poa, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(points[0].bcg.avg_edges, 15.0);  // K6
  EXPECT_EQ(points[0].ucg.count, 1);
  EXPECT_DOUBLE_EQ(points[0].ucg.avg_edges, 15.0);
}

TEST(CensusTest, BcgCountsMatchDirectEnumeration) {
  // Cross-check the census pipeline against per-graph Definition 3 checks.
  const std::array<double, 3> taus{3.0, 6.0, 16.0};
  const auto points = census_sweep(6, taus);
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const double alpha = taus[t] / 2.0;
    long long direct = 0;
    for_each_graph(
        6,
        [&](const graph& g) {
          if (is_pairwise_stable(g, alpha)) ++direct;
        },
        {.connected_only = true});
    EXPECT_EQ(points[t].bcg.count, direct) << "tau=" << taus[t];
  }
}

TEST(CensusTest, UcgCountsMatchDirectEnumeration) {
  const std::array<double, 2> taus{1.5, 4.0};
  const auto points = census_sweep(5, taus);
  for (std::size_t t = 0; t < taus.size(); ++t) {
    const double alpha = taus[t];
    long long direct = 0;
    for_each_graph(
        5,
        [&](const graph& g) {
          if (is_ucg_nash(g, alpha)) ++direct;
        },
        {.connected_only = true});
    EXPECT_EQ(points[t].ucg.count, direct) << "tau=" << taus[t];
  }
}

TEST(CensusTest, AveragesAreConsistentBounds) {
  const std::array<double, 4> taus{2.0, 4.0, 8.0, 32.0};
  const auto points = census_sweep(7, taus);
  for (const auto& point : points) {
    if (point.bcg.count > 0) {
      EXPECT_GE(point.bcg.avg_poa, 1.0 - 1e-12);
      EXPECT_GE(point.bcg.max_poa, point.bcg.avg_poa - 1e-12);
      EXPECT_GE(point.bcg.avg_edges, 6.0 - 1e-9);  // connected minimum n-1
      EXPECT_LE(point.bcg.avg_edges, 21.0 + 1e-9);
    }
    if (point.ucg.count > 0) {
      EXPECT_GE(point.ucg.avg_poa, 1.0 - 1e-12);
    }
  }
}

TEST(CensusTest, StarAlwaysCountedAboveCrossover) {
  // For tau > 2 (alpha_BCG > 1) the star is pairwise stable, so the count
  // is at least 1 at every grid point.
  const std::array<double, 3> taus{2.5, 10.0, 60.0};
  const auto points = census_sweep(6, taus);
  for (const auto& point : points) {
    EXPECT_GE(point.bcg.count, 1);
  }
}

TEST(CensusTest, SkippingUcgZeroesItsStats) {
  const std::array<double, 1> taus{4.0};
  const auto points = census_sweep(6, taus, {.include_ucg = false});
  EXPECT_EQ(points[0].ucg.count, 0);
  EXPECT_GT(points[0].bcg.count, 0);
}

TEST(CensusTest, RecordsMatchSweepCounts) {
  const auto records = build_census_records(6);
  EXPECT_EQ(records.size(), known_connected_graph_counts[6]);
  const std::array<double, 2> taus{3.0, 12.0};
  const auto points = census_sweep(6, taus);
  for (std::size_t t = 0; t < taus.size(); ++t) {
    long long from_records = 0;
    for (const auto& record : records) {
      if (record.bcg_interval.contains(taus[t] / 2.0)) ++from_records;
    }
    EXPECT_EQ(points[t].bcg.count, from_records);
  }
}

TEST(CensusTest, RecordsCarryExactInvariants) {
  const auto records = build_census_records(5);
  for (const auto& record : records) {
    const graph g = graph::from_key64(5, record.key);
    EXPECT_EQ(record.edges, g.size());
    EXPECT_EQ(record.bcg_interval, compute_stability_record(g))
        << to_string(g);
  }
}

TEST(CensusTest, RecordsCarryBothGamesExactIntervals) {
  const auto records = build_census_records(6);
  for (const auto& record : records) {
    const graph g = graph::from_key64(6, record.key);
    // The BCG interval matches Definition 3 at every probe.
    for (const double alpha : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 16.0}) {
      EXPECT_EQ(record.bcg_interval.contains(alpha),
                is_pairwise_stable(g, alpha))
          << to_string(g) << " alpha=" << alpha;
    }
    // The UCG region matches the per-alpha search off the tie tolerance.
    for (const double alpha : {0.4, 0.9, 1.3, 2.2, 4.7, 9.5}) {
      EXPECT_EQ(record.ucg.contains(alpha), is_ucg_nash(g, alpha))
          << to_string(g) << " alpha=" << alpha;
    }
  }
}

TEST(CensusTest, SweepNeverRunsPerAlphaNashSearches) {
  // The interval-driven sweep performs ONE stability analysis per
  // topology; the per-alpha orientation search must not run at all (the
  // acceptance bar is "at most once per topology" — this pins zero).
  const auto taus = default_tau_grid(7);
  const long long before = ucg_nash_search_invocations();
  const auto points = census_sweep(7, taus, {.include_ucg = true});
  const long long after = ucg_nash_search_invocations();
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(points.size(), taus.size());
}

TEST(CensusTest, DefaultGridCountsMatchBruteForceAfterEpsRemoval) {
  // Guard for deleting the census's ucg_filter_eps slack: on the default
  // tau grids the exact interval census and the eps-tolerant per-alpha
  // checkers classify every (topology, grid point) identically, for both
  // games. n <= 6 keeps the brute force cheap; the grid spans the full
  // default range used by the figures.
  for (int n = 5; n <= 6; ++n) {
    const auto taus = default_tau_grid(n);
    const auto points = census_sweep(n, taus, {.include_ucg = true});
    for (std::size_t t = 0; t < taus.size(); ++t) {
      long long bcg_direct = 0;
      long long ucg_direct = 0;
      for_each_graph(
          n,
          [&](const graph& g) {
            if (is_pairwise_stable(g, taus[t] / 2.0)) ++bcg_direct;
            if (is_ucg_nash(g, taus[t])) ++ucg_direct;
          },
          {.connected_only = true});
      EXPECT_EQ(points[t].bcg.count, bcg_direct) << "n=" << n
                                                 << " tau=" << taus[t];
      EXPECT_EQ(points[t].ucg.count, ucg_direct) << "n=" << n
                                                 << " tau=" << taus[t];
    }
  }
}

TEST(CensusTest, ThreadCountsAgree) {
  const std::array<double, 2> taus{2.0, 8.0};
  const auto seq = census_sweep(6, taus, {.include_ucg = true, .threads = 1});
  const auto par = census_sweep(6, taus, {.include_ucg = true, .threads = 4});
  for (std::size_t t = 0; t < taus.size(); ++t) {
    EXPECT_EQ(seq[t].bcg.count, par[t].bcg.count);
    EXPECT_EQ(seq[t].ucg.count, par[t].ucg.count);
    EXPECT_NEAR(seq[t].bcg.avg_poa, par[t].bcg.avg_poa, 1e-12);
  }
}

TEST(CensusTest, Preconditions) {
  const std::array<double, 1> taus{1.0};
  EXPECT_THROW((void)census_sweep(1, taus), precondition_error);
  EXPECT_THROW((void)census_sweep(max_enumeration_order + 1, taus),
               precondition_error);
  const std::array<double, 1> bad{-1.0};
  EXPECT_THROW((void)census_sweep(5, bad), precondition_error);
  EXPECT_THROW((void)build_census_records(9), precondition_error);
}

}  // namespace
}  // namespace bnf
