// Rendering of census sweeps as the paper's figure series.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "analysis/census.hpp"
#include "analysis/poa_curve.hpp"
#include "util/table.hpp"

namespace bnf {

/// Figure 2 series: average price of anarchy of equilibrium networks vs
/// link cost (x-axis: log2 of tau, matching the paper's log(alpha) /
/// log(2 alpha) alignment).
[[nodiscard]] text_table figure2_table(std::span<const census_point> points);

/// Figure 3 series: average number of links of equilibrium networks vs
/// link cost.
[[nodiscard]] text_table figure3_table(std::span<const census_point> points);

/// Worst-case (max) PoA per grid point with the Prop 4 reference envelope
/// c * min(sqrt(alpha), n/sqrt(alpha)).
[[nodiscard]] text_table worst_case_table(std::span<const census_point> points,
                                          int n);

/// Price-of-stability series: the BEST equilibrium's PoA per grid point,
/// both games. The paper notes the welfare optimum is itself stable in
/// both games, so these columns should pin to 1 wherever equilibria exist.
[[nodiscard]] text_table price_of_stability_table(
    std::span<const census_point> points);

/// Exact breakpoint list of a piecewise census: each row is one rational
/// tau at which an equilibrium set changes, tagged with the game(s)
/// shifting there. The exact column is pure integer formatting, which
/// makes this table the golden-file anchor for the CI breakpoint diffs.
[[nodiscard]] text_table poa_breakpoints_table(const poa_curve_summary& curve);

/// The full piecewise census: alternating open segments (evaluated at an
/// exact interior probe) and breakpoint rows (evaluated exactly ON the
/// threshold), with both games' equilibrium count, avg/max PoA, price of
/// stability, and average link count.
[[nodiscard]] text_table poa_curve_table(const poa_curve_summary& curve);

/// Write any table as CSV to `path` (truncates). Throws precondition_error
/// on I/O failure with the OS errno text in the message.
void write_csv_file(const text_table& table, const std::string& path);

}  // namespace bnf
