// The profile histogram behind every census pipeline: the weighted
// accumulator fold must equal repeated unit adds bit for bit, the
// multiplicities must account for every connected topology, the bins must
// be exactly the census records grouped by profile, the grid sweep must
// equal a record-by-record evaluation bit for bit, and neither the
// histogram nor the fig2/fig3 tables rendered from it may depend on the
// thread count. The work counters of the n = 8 histogram are pinned.
#include "analysis/topology_profile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/accumulator.hpp"
#include "analysis/census.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "gen/enumerate.hpp"
#include "obs/metrics.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

void expect_same_accumulator(const equilibrium_accumulator& a,
                             const equilibrium_accumulator& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.edge_sum, b.edge_sum);
  EXPECT_EQ(a.distance_sum, b.distance_sum);
  // Bitwise-exact double equality, infinities included.
  EXPECT_EQ(a.poa_max, b.poa_max);
  EXPECT_EQ(a.poa_min, b.poa_min);
}

TEST(ProfileHistogramTest, WeightedAddEqualsRepeatedUnitAdds) {
  // Start from a non-empty accumulator so the fold has to combine, not
  // just initialize.
  for (const long long multiplicity : {0LL, 1LL, 2LL, 7LL, 1000LL}) {
    SCOPED_TRACE("multiplicity=" + std::to_string(multiplicity));
    equilibrium_accumulator singles;
    equilibrium_accumulator weighted;
    singles.add(1.25, 4, 30, 1);
    weighted.add(1.25, 4, 30, 1);
    for (long long i = 0; i < multiplicity; ++i) singles.add(1.75, 9, 104, 1);
    weighted.add(1.75, 9, 104, multiplicity);
    expect_same_accumulator(singles, weighted);
  }
}

TEST(ProfileHistogramTest, ZeroMultiplicityLeavesAnEmptyAccumulatorEmpty) {
  equilibrium_accumulator weighted;
  weighted.add(3.5, 12, 80, 0);
  expect_same_accumulator(equilibrium_accumulator{}, weighted);
  const equilibrium_set_stats stats = weighted.stats(2.0, 10.0);
  EXPECT_EQ(stats.count, 0);
  EXPECT_EQ(stats.avg_poa, 0.0);
  EXPECT_EQ(stats.max_poa, 0.0);
  EXPECT_EQ(stats.min_poa, 0.0);
  EXPECT_EQ(stats.avg_edges, 0.0);
}

TEST(ProfileHistogramTest, WeightedAddRejectsNegativeAndOverflow) {
  equilibrium_accumulator acc;
  EXPECT_THROW(acc.add(1.0, 3, 10, -1), precondition_error);
  EXPECT_THROW(acc.add(1.0, 3, 10, std::numeric_limits<long long>::max()),
               precondition_error);
}

long long multiplicity_sum(const profile_histogram& histogram) {
  long long total = 0;
  for (const profile_bin& bin : histogram.bins) total += bin.multiplicity;
  return total;
}

TEST(ProfileHistogramTest, MultiplicitiesSumToConnectedGraphCounts) {
  // OEIS A001349. n = 9 runs BCG-only: the UCG region cannot change how
  // many topologies there are, only how they split into bins.
  for (int n = 3; n <= 9; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const profile_histogram histogram =
        build_profile_histogram(n, {.include_ucg = n <= 8});
    const auto expected = known_connected_graph_counts[static_cast<std::size_t>(n)];
    EXPECT_EQ(histogram.topologies, expected);
    EXPECT_EQ(static_cast<std::uint64_t>(multiplicity_sum(histogram)),
              expected);
    EXPECT_GT(histogram.bytes, 0U);
    for (const profile_bin& bin : histogram.bins) {
      EXPECT_GT(bin.multiplicity, 0);
    }
  }
}

// A profile spelled out, for grouping the record path independently of the
// histogram's own key.
std::string describe(int edges, long long distance_total,
                     const alpha_interval& bcg,
                     const alpha_interval_set& ucg) {
  std::ostringstream out;
  out << edges << " " << distance_total << " " << to_string(bcg) << " "
      << to_string(ucg);
  return out.str();
}

TEST(ProfileHistogramTest, EqualsTheRecordPathGroupedByProfile) {
  for (int n = 3; n <= 7; ++n) {
    for (const bool include_ucg : {true, false}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " ucg=" + std::to_string(include_ucg));
      std::map<std::string, long long> from_records;
      for (const census_graph_record& record :
           build_census_records(n, {.include_ucg = include_ucg})) {
        ++from_records[describe(record.edges, record.distance_total,
                                record.bcg_interval, record.ucg)];
      }
      std::map<std::string, long long> from_histogram;
      const profile_histogram histogram =
          build_profile_histogram(n, {.include_ucg = include_ucg});
      for (const profile_bin& bin : histogram.bins) {
        const std::string key = describe(bin.edges, bin.distance_total,
                                         bin.bcg_interval, bin.ucg);
        // Distinct bins are distinct profiles.
        EXPECT_EQ(from_histogram.count(key), 0U) << key;
        from_histogram[key] = bin.multiplicity;
      }
      EXPECT_EQ(from_histogram, from_records);
    }
  }
}

void expect_same_histogram(const profile_histogram& a,
                           const profile_histogram& b) {
  EXPECT_EQ(a.topologies, b.topologies);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].edges, b.bins[i].edges) << i;
    EXPECT_EQ(a.bins[i].distance_total, b.bins[i].distance_total) << i;
    EXPECT_EQ(a.bins[i].bcg_interval, b.bins[i].bcg_interval) << i;
    EXPECT_EQ(a.bins[i].ucg, b.bins[i].ucg) << i;
    EXPECT_EQ(a.bins[i].multiplicity, b.bins[i].multiplicity) << i;
  }
}

TEST(ProfileHistogramTest, ThreadCountsProduceTheSameBins) {
  const profile_histogram one = build_profile_histogram(7, {.threads = 1});
  for (const int threads : {2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_histogram(one,
                          build_profile_histogram(7, {.threads = threads}));
  }
}

TEST(ProfileHistogramTest, Order8WorkCountersArePinned) {
  // The search's own work, flushed per shard: a change to any single-link
  // delta that seeds the region search (an addition saving or a
  // severance increase) moves these counters before it moves a result.
  const char* const names[] = {obs::names::region_searches,
                               obs::names::ucg_player_intervals,
                               obs::names::ucg_orientations,
                               obs::names::ucg_bfs,
                               obs::names::bcg_fallback_bfs};
  const std::uint64_t expected[] = {11117, 69729, 77068, 84540, 4940};
  std::uint64_t before[5];
  for (int i = 0; i < 5; ++i) before[i] = obs::get_counter(names[i]).value();
  EXPECT_EQ(build_profile_histogram(8, {.threads = 1}).topologies, 11117U);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(obs::get_counter(names[i]).value() - before[i], expected[i])
        << names[i];
  }
}

TEST(ProfileHistogramTest, Preconditions) {
  EXPECT_THROW((void)build_profile_histogram(1), precondition_error);
  EXPECT_THROW((void)build_profile_histogram(max_enumeration_order + 1),
               precondition_error);
}

std::string csv_of(const text_table& table) {
  std::ostringstream out;
  table.to_csv(out);
  return out.str();
}

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

void expect_identical_points(const census_point& a, const census_point& b,
                             const std::string& where) {
  EXPECT_EQ(a.tau, b.tau) << where;
  EXPECT_EQ(a.alpha_bcg, b.alpha_bcg) << where;
  EXPECT_EQ(a.alpha_ucg, b.alpha_ucg) << where;
  expect_identical_stats(a.bcg, b.bcg, where + " bcg");
  expect_identical_stats(a.ucg, b.ucg, where + " ucg");
}

// The grid census evaluated record by record, with no binning.
std::vector<census_point> sweep_from_records(int n,
                                             const std::vector<double>& taus,
                                             bool include_ucg) {
  const std::vector<census_graph_record> records =
      build_census_records(n, {.include_ucg = include_ucg});
  std::vector<census_point> points;
  for (const double tau : taus) {
    points.push_back(
        testing::reference_census_point(n, records, exact_rational(tau)));
  }
  return points;
}

TEST(ProfileHistogramTest, SweepMatchesPerRecordEvaluation) {
  for (int n = 3; n <= 7; ++n) {
    for (const bool include_ucg : {true, false}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " ucg=" + std::to_string(include_ucg));
      const std::vector<double> taus = default_tau_grid(n);
      const std::vector<census_point> reference =
          sweep_from_records(n, taus, include_ucg);
      const std::vector<census_point> swept =
          census_sweep(n, taus, {.include_ucg = include_ucg});
      ASSERT_EQ(swept.size(), reference.size());
      for (std::size_t t = 0; t < taus.size(); ++t) {
        expect_identical_points(swept[t], reference[t],
                                "tau=" + std::to_string(taus[t]));
      }
      EXPECT_EQ(csv_of(figure2_table(swept)), csv_of(figure2_table(reference)));
      EXPECT_EQ(csv_of(figure3_table(swept)), csv_of(figure3_table(reference)));
      EXPECT_EQ(csv_of(price_of_stability_table(swept)),
                csv_of(price_of_stability_table(reference)));
    }
  }
}

TEST(ProfileHistogramTest, FigureTablesAreIdenticalAcrossThreadCounts) {
  const std::vector<double> taus = default_tau_grid(7);
  const std::vector<census_point> one =
      census_sweep(7, taus, {.include_ucg = true, .threads = 1});
  for (const int threads : {2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<census_point> many =
        census_sweep(7, taus, {.include_ucg = true, .threads = threads});
    EXPECT_EQ(csv_of(figure2_table(one)), csv_of(figure2_table(many)));
    EXPECT_EQ(csv_of(figure3_table(one)), csv_of(figure3_table(many)));
    EXPECT_EQ(csv_of(price_of_stability_table(one)),
              csv_of(price_of_stability_table(many)));
  }
}

}  // namespace
}  // namespace bnf
