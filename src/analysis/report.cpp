#include "analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/contracts.hpp"
#include "util/file_io.hpp"

namespace bnf {

namespace {

std::string count_or_dash(long long count) {
  return count > 0 ? std::to_string(count) : "-";
}

std::string stat_or_dash(long long count, double value, int precision = 3) {
  return count > 0 ? fmt_double(value, precision) : "-";
}

}  // namespace

text_table figure2_table(std::span<const census_point> points) {
  text_table table({"tau", "log2(tau)", "alpha_BCG", "#stable_BCG",
                    "avgPoA_BCG", "alpha_UCG", "#nash_UCG", "avgPoA_UCG"});
  for (const auto& point : points) {
    table.add_row({fmt_double(point.tau), fmt_double(std::log2(point.tau), 2),
                   fmt_double(point.alpha_bcg), count_or_dash(point.bcg.count),
                   stat_or_dash(point.bcg.count, point.bcg.avg_poa, 4),
                   fmt_double(point.alpha_ucg), count_or_dash(point.ucg.count),
                   stat_or_dash(point.ucg.count, point.ucg.avg_poa, 4)});
  }
  return table;
}

text_table figure3_table(std::span<const census_point> points) {
  text_table table({"tau", "log2(tau)", "alpha_BCG", "#stable_BCG",
                    "avgLinks_BCG", "alpha_UCG", "#nash_UCG", "avgLinks_UCG"});
  for (const auto& point : points) {
    table.add_row({fmt_double(point.tau), fmt_double(std::log2(point.tau), 2),
                   fmt_double(point.alpha_bcg), count_or_dash(point.bcg.count),
                   stat_or_dash(point.bcg.count, point.bcg.avg_edges, 3),
                   fmt_double(point.alpha_ucg), count_or_dash(point.ucg.count),
                   stat_or_dash(point.ucg.count, point.ucg.avg_edges, 3)});
  }
  return table;
}

text_table worst_case_table(std::span<const census_point> points, int n) {
  text_table table({"tau", "alpha_BCG", "#stable_BCG", "maxPoA_BCG",
                    "sqrt(alpha)", "min(sqrt,n/sqrt)", "ratio"});
  for (const auto& point : points) {
    const double alpha = point.alpha_bcg;
    const double root = std::sqrt(alpha);
    const double envelope = std::min(root, static_cast<double>(n) / root);
    table.add_row(
        {fmt_double(point.tau), fmt_double(alpha),
         count_or_dash(point.bcg.count),
         stat_or_dash(point.bcg.count, point.bcg.max_poa, 4), fmt_double(root),
         fmt_double(envelope),
         stat_or_dash(point.bcg.count,
                      point.bcg.count > 0 ? point.bcg.max_poa / envelope : 0.0,
                      4)});
  }
  return table;
}

text_table price_of_stability_table(std::span<const census_point> points) {
  text_table table({"tau", "alpha_BCG", "#stable_BCG", "PoS_BCG", "PoA_BCG",
                    "alpha_UCG", "#nash_UCG", "PoS_UCG", "PoA_UCG"});
  for (const auto& point : points) {
    table.add_row({fmt_double(point.tau), fmt_double(point.alpha_bcg),
                   count_or_dash(point.bcg.count),
                   stat_or_dash(point.bcg.count, point.bcg.min_poa, 4),
                   stat_or_dash(point.bcg.count, point.bcg.max_poa, 4),
                   fmt_double(point.alpha_ucg), count_or_dash(point.ucg.count),
                   stat_or_dash(point.ucg.count, point.ucg.min_poa, 4),
                   stat_or_dash(point.ucg.count, point.ucg.max_poa, 4)});
  }
  return table;
}

text_table poa_breakpoints_table(const poa_curve_summary& curve) {
  text_table table({"idx", "tau_exact", "tau", "games"});
  for (std::size_t i = 0; i < curve.breakpoints.size(); ++i) {
    const poa_breakpoint& entry = curve.breakpoints[i];
    std::string games;
    if (entry.from_bcg) games += "bcg";
    if (entry.from_ucg) games += games.empty() ? "ucg" : "+ucg";
    table.add_row({std::to_string(i), to_string(entry.tau),
                   fmt_double(entry.tau.to_double(), 4), games});
  }
  return table;
}

text_table poa_curve_table(const poa_curve_summary& curve) {
  text_table table({"kind", "tau_lo", "tau_hi", "tau_eval", "#stable_BCG",
                    "avgPoA_BCG", "maxPoA_BCG", "PoS_BCG", "avgLinks_BCG",
                    "#nash_UCG", "avgPoA_UCG", "maxPoA_UCG", "PoS_UCG",
                    "avgLinks_UCG"});
  // Rows alternate segment probes and breakpoints in increasing tau
  // order; segment s spans breakpoints s-1 .. s.
  std::size_t segment = 0;
  for (const poa_curve_row& row : curve.rows) {
    std::string kind;
    std::string tau_lo;
    std::string tau_hi;
    if (row.on_breakpoint) {
      kind = "point";
      tau_lo = to_string(row.tau);
      tau_hi = tau_lo;
    } else {
      kind = "segment";
      tau_lo = segment == 0 ? "0" : to_string(curve.breakpoints[segment - 1].tau);
      tau_hi = segment == curve.breakpoints.size()
                   ? "inf"
                   : to_string(curve.breakpoints[segment].tau);
      ++segment;
    }
    const census_point& point = row.point;
    table.add_row({kind, tau_lo, tau_hi, to_string(row.tau),
                   count_or_dash(point.bcg.count),
                   stat_or_dash(point.bcg.count, point.bcg.avg_poa, 4),
                   stat_or_dash(point.bcg.count, point.bcg.max_poa, 4),
                   stat_or_dash(point.bcg.count, point.bcg.min_poa, 4),
                   stat_or_dash(point.bcg.count, point.bcg.avg_edges, 3),
                   count_or_dash(point.ucg.count),
                   stat_or_dash(point.ucg.count, point.ucg.avg_poa, 4),
                   stat_or_dash(point.ucg.count, point.ucg.max_poa, 4),
                   stat_or_dash(point.ucg.count, point.ucg.min_poa, 4),
                   stat_or_dash(point.ucg.count, point.ucg.avg_edges, 3)});
  }
  return table;
}

void write_csv_file(const text_table& table, const std::string& path) {
  std::ofstream out = open_for_write(path, "write_csv_file");
  table.to_csv(out);
  flush_or_throw(out, path, "write_csv_file");
}

}  // namespace bnf
