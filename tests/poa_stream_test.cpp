// The streaming breakpoint engine against the per-record reference: every
// row must equal testing::reference_census_point — a record-by-record scan
// of build_census_records with no profile binning — BYTE for byte, the
// breakpoints must be exactly the records' thresholds, and none of it may
// depend on the thread count.
#include "analysis/poa_curve.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "gen/enumerate.hpp"
#include "testing.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

void expect_identical_stats(const equilibrium_set_stats& a,
                            const equilibrium_set_stats& b,
                            const std::string& where) {
  EXPECT_EQ(a.count, b.count) << where;
  // EXPECT_EQ on doubles is bitwise-exact equality (no tolerance): the
  // two evaluations must agree to the last ulp, not approximately.
  EXPECT_EQ(a.avg_poa, b.avg_poa) << where;
  EXPECT_EQ(a.max_poa, b.max_poa) << where;
  EXPECT_EQ(a.min_poa, b.min_poa) << where;
  EXPECT_EQ(a.avg_edges, b.avg_edges) << where;
}

void expect_identical_summaries(const poa_curve_summary& a,
                                const poa_curve_summary& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.topologies, b.topologies);
  ASSERT_EQ(a.breakpoints.size(), b.breakpoints.size());
  for (std::size_t i = 0; i < a.breakpoints.size(); ++i) {
    EXPECT_EQ(a.breakpoints[i].tau, b.breakpoints[i].tau) << i;
    EXPECT_EQ(a.breakpoints[i].from_bcg, b.breakpoints[i].from_bcg) << i;
    EXPECT_EQ(a.breakpoints[i].from_ucg, b.breakpoints[i].from_ucg) << i;
  }
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const std::string where = "row " + std::to_string(r);
    EXPECT_EQ(a.rows[r].tau, b.rows[r].tau) << where;
    EXPECT_EQ(a.rows[r].on_breakpoint, b.rows[r].on_breakpoint) << where;
    EXPECT_EQ(a.rows[r].point.tau, b.rows[r].point.tau) << where;
    EXPECT_EQ(a.rows[r].point.alpha_bcg, b.rows[r].point.alpha_bcg) << where;
    EXPECT_EQ(a.rows[r].point.alpha_ucg, b.rows[r].point.alpha_ucg) << where;
    expect_identical_stats(a.rows[r].point.bcg, b.rows[r].point.bcg,
                           where + " bcg");
    expect_identical_stats(a.rows[r].point.ucg, b.rows[r].point.ucg,
                           where + " ucg");
  }
}

// The records' thresholds in tau units, merged by value: BCG endpoints
// doubled, UCG endpoints as they are, zero and infinity dropped.
std::map<rational, std::pair<bool, bool>> record_thresholds(
    const std::vector<census_graph_record>& records) {
  std::map<rational, std::pair<bool, bool>> thresholds;
  const auto note = [&](const rational& tau, bool bcg) {
    if (tau.is_infinite() || tau.num <= 0) return;
    auto& games = thresholds[tau];
    (bcg ? games.first : games.second) = true;
  };
  for (const census_graph_record& record : records) {
    const alpha_interval& bcg = record.bcg_interval;
    if (!bcg.empty()) {
      for (const rational& end : {bcg.lo, bcg.hi}) {
        note(end.is_infinite() ? end : rational::make(2 * end.num, end.den),
             true);
      }
    }
    for (const alpha_interval& part : record.ucg.parts()) {
      note(part.lo, false);
      note(part.hi, false);
    }
  }
  return thresholds;
}

// The streamed summary with every row re-evaluated by the reference.
poa_curve_summary with_reference_rows(
    poa_curve_summary curve, const std::vector<census_graph_record>& records) {
  for (poa_curve_row& row : curve.rows) {
    row.point = testing::reference_census_point(curve.n, records, row.tau);
  }
  return curve;
}

TEST(PoaStreamTest, MatchesPerRecordReferenceOnEveryRowUpToN7) {
  for (int n = 3; n <= 7; ++n) {
    for (const bool include_ucg : {true, false}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " ucg=" + std::to_string(include_ucg));
      const std::vector<census_graph_record> records =
          build_census_records(n, {.include_ucg = include_ucg});
      const poa_curve_summary streamed =
          stream_poa_curve(n, {.include_ucg = include_ucg});
      EXPECT_EQ(streamed.topologies, records.size());
      // Far fewer distinct profiles than topologies is the point of the
      // histogram; zero would mean nothing was profiled.
      EXPECT_GT(streamed.distinct_profiles, 0U);
      EXPECT_LE(streamed.distinct_profiles, streamed.topologies);

      const auto thresholds = record_thresholds(records);
      ASSERT_EQ(streamed.breakpoints.size(), thresholds.size());
      std::size_t i = 0;
      for (const auto& [tau, games] : thresholds) {
        EXPECT_EQ(streamed.breakpoints[i].tau, tau) << i;
        EXPECT_EQ(streamed.breakpoints[i].from_bcg, games.first) << i;
        EXPECT_EQ(streamed.breakpoints[i].from_ucg, games.second) << i;
        if (!include_ucg) {
          EXPECT_FALSE(streamed.breakpoints[i].from_ucg) << i;
        }
        ++i;
      }
      expect_identical_summaries(with_reference_rows(streamed, records),
                                 streamed);
    }
  }
}

TEST(PoaStreamTest, ThreadCountsProduceIdenticalBytes) {
  for (int n = 5; n <= 6; ++n) {
    for (const bool include_ucg : {true, false}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " ucg=" + std::to_string(include_ucg));
      const poa_curve_summary one =
          stream_poa_curve(n, {.include_ucg = include_ucg, .threads = 1});
      for (const int threads : {2, 3, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const poa_curve_summary many = stream_poa_curve(
            n, {.include_ucg = include_ucg, .threads = threads});
        EXPECT_EQ(one.distinct_profiles, many.distinct_profiles);
        expect_identical_summaries(one, many);
      }
    }
  }
}

TEST(PoaStreamTest, RenderedTablesAreIdenticalAcrossThreadCounts) {
  const auto csv_of = [](const poa_curve_summary& curve) {
    std::ostringstream out;
    poa_breakpoints_table(curve).to_csv(out);
    poa_curve_table(curve).to_csv(out);
    return out.str();
  };
  const std::string one = csv_of(stream_poa_curve(7, {.threads = 1}));
  for (const int threads : {2, 3, 4}) {
    EXPECT_EQ(one, csv_of(stream_poa_curve(7, {.threads = threads})))
        << "threads=" << threads;
  }
}

TEST(PoaStreamTest, RenderedTablesMatchTheReference) {
  // The scenario-level guarantee: the tables (and hence the CSV golden
  // files) cannot tell the engine from a per-record evaluation.
  const auto csv_of = [](const text_table& table) {
    std::ostringstream out;
    table.to_csv(out);
    return out.str();
  };
  const poa_curve_summary streamed = stream_poa_curve(6);
  const poa_curve_summary reference =
      with_reference_rows(streamed, build_census_records(6));
  EXPECT_EQ(csv_of(poa_breakpoints_table(reference)),
            csv_of(poa_breakpoints_table(streamed)));
  EXPECT_EQ(csv_of(poa_curve_table(reference)),
            csv_of(poa_curve_table(streamed)));
}

TEST(PoaStreamTest, RowsInterleaveSegmentsAndBreakpoints) {
  const poa_curve_summary summary = stream_poa_curve(5);
  ASSERT_EQ(summary.rows.size(), 2 * summary.breakpoints.size() + 1);
  for (std::size_t r = 0; r < summary.rows.size(); ++r) {
    EXPECT_EQ(summary.rows[r].on_breakpoint, r % 2 == 1) << r;
    if (r > 0) {
      EXPECT_LT(summary.rows[r - 1].tau, summary.rows[r].tau) << r;
    }
    if (r % 2 == 1) {
      EXPECT_EQ(summary.rows[r].tau, summary.breakpoints[r / 2].tau) << r;
    }
  }
}

TEST(PoaStreamTest, StreamCoversN9BeyondTheRecordGuard) {
  // The records are capped at n <= 8; the streaming engine must keep
  // going. n=9 profiles 261080 topologies — a few seconds — and its
  // breakpoint list must contain the n=8 thresholds' general pattern:
  // strictly increasing, all finite and positive.
  const poa_curve_summary summary =
      stream_poa_curve(9, {.include_ucg = false});
  EXPECT_EQ(summary.topologies, 261080U);
  ASSERT_GT(summary.breakpoints.size(), 0U);
  for (std::size_t i = 0; i < summary.breakpoints.size(); ++i) {
    const rational& tau = summary.breakpoints[i].tau;
    EXPECT_FALSE(tau.is_infinite());
    EXPECT_GT(tau.num, 0);
    if (i > 0) {
      EXPECT_LT(summary.breakpoints[i - 1].tau, tau);
    }
  }
}

TEST(PoaStreamTest, Preconditions) {
  EXPECT_THROW((void)stream_poa_curve(1), precondition_error);
  EXPECT_THROW((void)stream_poa_curve(max_enumeration_order + 1),
               precondition_error);
}

}  // namespace
}  // namespace bnf
