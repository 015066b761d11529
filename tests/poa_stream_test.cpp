// Streaming-vs-materialized equivalence: the histogram-backed streaming
// breakpoint engine must reproduce the record path BYTE for byte — same
// exact breakpoints, same doubles in every row statistic — for every n the
// record path covers, and across thread counts. The shared exact
// accumulator makes this equality structural, and these tests keep it
// that way.
#include "analysis/poa_curve.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "gen/enumerate.hpp"
#include "util/contracts.hpp"

namespace bnf {
namespace {

void expect_identical_stats(const equilibrium_set_stats& a,
                            const equilibrium_set_stats& b,
                            const std::string& where) {
  EXPECT_EQ(a.count, b.count) << where;
  // EXPECT_EQ on doubles is bitwise-exact equality (no tolerance): the
  // two pipelines must agree to the last ulp, not approximately.
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
    expect_identical_stats(a.rows[r].point.bcg, b.rows[r].point.bcg,
                           where + " bcg");
    expect_identical_stats(a.rows[r].point.ucg, b.rows[r].point.ucg,
                           where + " ucg");
  }
}

TEST(PoaStreamTest, MatchesMaterializedPathByteForByteUpToN7) {
  for (int n = 3; n <= 7; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const poa_curve_summary materialized =
        summarize_poa_curve(build_poa_curve(n));
    const poa_curve_summary streamed = stream_poa_curve(n);
    // Far fewer distinct profiles than topologies is the point of the
    // histogram; zero would mean nothing was profiled.
    EXPECT_GT(streamed.distinct_profiles, 0U);
    EXPECT_LE(streamed.distinct_profiles, streamed.topologies);
    expect_identical_summaries(materialized, streamed);
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

TEST(PoaStreamTest, RenderedTablesAreIdentical) {
  // The scenario-level guarantee: the tables (and hence the CSV golden
  // files) cannot tell the engines apart.
  const auto csv_of = [](const text_table& table) {
    std::ostringstream out;
    table.to_csv(out);
    return out.str();
  };
  const poa_curve curve = build_poa_curve(6);
  const poa_curve_summary streamed = stream_poa_curve(6);
  EXPECT_EQ(csv_of(poa_breakpoints_table(curve)),
            csv_of(poa_breakpoints_table(streamed)));
  EXPECT_EQ(csv_of(poa_curve_table(curve)), csv_of(poa_curve_table(streamed)));
}

TEST(PoaStreamTest, BcgOnlyCurveMatchesMaterialized) {
  const poa_curve_summary materialized =
      summarize_poa_curve(build_poa_curve(6, {.include_ucg = false}));
  const poa_curve_summary streamed =
      stream_poa_curve(6, {.include_ucg = false});
  expect_identical_summaries(materialized, streamed);
  for (const poa_breakpoint& entry : streamed.breakpoints) {
    EXPECT_TRUE(entry.from_bcg);
    EXPECT_FALSE(entry.from_ucg);
  }
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
  // The record path is capped at n <= 8; the streaming engine must keep
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
