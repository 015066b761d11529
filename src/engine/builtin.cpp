#include "engine/builtin.hpp"

#include <cstddef>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/census.hpp"
#include "analysis/poa_curve.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "dynamics/pairwise_dynamics.hpp"
#include "dynamics/sampler.hpp"
#include "engine/registry.hpp"
#include "engine/runner.hpp"
#include "engine/sink.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "game/connection_game.hpp"
#include "game/efficiency.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "util/contracts.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace bnf {

namespace {

// Shared flag block of the figure sweeps (Figures 2 and 3 use the same
// census pipeline and grid controls).
void add_census_flags(arg_parser& args) {
  args.add_int("n", 8, "number of players (paper: 10; default 8 for speed)");
  args.add_double("tau-min", 0.53,
                  "smallest total per-edge cost (non-dyadic default avoids "
                  "knife-edge integer link costs)");
  args.add_double("tau-max", 0.0, "largest total per-edge cost (0 = ~2n^2)");
  args.add_int("per-octave", 2, "grid points per doubling of tau");
  args.add_flag("skip-ucg", "only compute the BCG series (much faster)");
}

std::vector<double> census_grid(const run_context& ctx, int n) {
  const double tau_max = ctx.args.get_double("tau-max") > 0
                             ? ctx.args.get_double("tau-max")
                             : 2.12 * n * n;
  return log_grid(ctx.args.get_double("tau-min"), tau_max,
                  static_cast<int>(ctx.args.get_int("per-octave")));
}

// --- fig2 / fig3: the census figure sweeps --------------------------------
// Both figures run the identical pipeline (grid -> census_sweep -> table)
// and differ only in the aggregate they tabulate and their banner text, so
// one parameterized scenario serves both registry entries.

class census_figure_scenario final : public scenario {
 public:
  struct spec {
    std::string name;
    std::string description;
    text_table (*table_fn)(std::span<const census_point>);
    std::string table_name;
    std::string banner_title;        // "Figure N: <aggregate> vs link cost"
    bool show_topology_count{false};  // fig2 cites the census size
    std::string footer_prefix;       // axis note before "census time:"
  };

  explicit census_figure_scenario(spec s) : spec_(std::move(s)) {}

  std::string name() const override { return spec_.name; }
  std::string description() const override { return spec_.description; }
  void configure(arg_parser& args) const override { add_census_flags(args); }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const auto taus = census_grid(ctx, n);

    stopwatch timer;
    const auto points = census_sweep(
        n, taus,
        {.include_ucg = !ctx.args.get_flag("skip-ucg"),
         .threads = ctx.threads});

    ctx.out << "=== " << spec_.banner_title << " (n=" << n;
    if (spec_.show_topology_count) {
      ctx.out << ", "
              << known_connected_graph_counts[static_cast<std::size_t>(n)]
              << " connected topologies";
    }
    ctx.out << ") ===\n";
    const text_table table = spec_.table_fn(points);
    table.print(ctx.out);
    ctx.out << "\n" << spec_.footer_prefix << "census time: "
            << fmt_double(timer.seconds(), 2) << " s\n";
    ctx.emit(spec_.table_name, table);
    return 0;
  }

 private:
  spec spec_;
};

// --- poa-curve: the census as exact breakpoints instead of a grid ---------

class poa_curve_scenario final : public scenario {
 public:
  std::string name() const override { return "poa-curve"; }
  std::string description() const override {
    return "breakpoint-exact PoA curves: every rational threshold at "
           "which an equilibrium set changes, no grid";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 6,
                 "number of players (streaming engine: n <= " +
                     std::to_string(max_enumeration_order) +
                     "; n = 10 is the paper's full census)");
    args.add_flag("skip-ucg", "only compute the BCG curve (much faster)");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));

    stopwatch timer;
    const poa_curve_summary curve = stream_poa_curve(
        n, {.include_ucg = !ctx.args.get_flag("skip-ucg"),
            .threads = ctx.threads});

    ctx.out << "=== Breakpoint-exact census curves (n=" << n << ", "
            << curve.topologies << " topologies, "
            << curve.breakpoints.size() << " breakpoints) ===\n";
    const text_table breakpoints = poa_breakpoints_table(curve);
    breakpoints.print(ctx.out);
    ctx.out << "\n";
    const text_table pieces = poa_curve_table(curve);
    pieces.print(ctx.out);
    ctx.out << "\nequilibrium sets are constant on every open segment "
               "(certified by the exact intervals); segment rows are "
               "evaluated at the exact rational tau_eval,\npoint rows "
               "exactly ON the breakpoint — the boundary convention is "
               "documented in equilibria/alpha_interval.hpp.\nanalysis "
               "time: "
            << fmt_double(timer.seconds(), 2) << " s ("
            << "one stability analysis per topology, grid-free, "
            << curve.distinct_profiles << " distinct profiles)\n";
    ctx.emit("poa_breakpoints", breakpoints);
    ctx.emit("poa_curve", pieces);
    return 0;
  }
};

// --- price-of-stability: PoS vs PoA over the census -----------------------

class price_of_stability_scenario final : public scenario {
 public:
  std::string name() const override { return "price-of-stability"; }
  std::string description() const override {
    return "PoS vs PoA of both connection games over the census";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 7, "number of players");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const auto taus = default_tau_grid(n);

    stopwatch timer;
    const auto points = census_sweep(
        n, taus, {.include_ucg = true, .threads = ctx.threads});

    ctx.out << "=== Price of stability vs price of anarchy (n=" << n
            << ") ===\n";
    const text_table table = price_of_stability_table(points);
    table.print(ctx.out);

    int bcg_pos_one = 0;
    int bcg_points = 0;
    int ucg_pos_one = 0;
    int ucg_points = 0;
    for (const auto& point : points) {
      if (point.bcg.count > 0) {
        ++bcg_points;
        if (point.bcg.min_poa <= 1.0 + 1e-9) ++bcg_pos_one;
      }
      if (point.ucg.count > 0) {
        ++ucg_points;
        if (point.ucg.min_poa <= 1.0 + 1e-9) ++ucg_pos_one;
      }
    }
    ctx.out << "\nPoS = 1 at " << bcg_pos_one << "/" << bcg_points
            << " BCG grid points and " << ucg_pos_one << "/" << ucg_points
            << " UCG grid points — the paper's claim that the welfare "
               "optimum is stable in both games.\ncensus time: "
            << fmt_double(timer.seconds(), 2) << " s\n";
    ctx.emit("price_of_stability", table);
    return 0;
  }
};

// --- sampler-validation: dynamics sampling vs the exhaustive census -------

class sampler_validation_scenario final : public scenario {
 public:
  std::string name() const override { return "sampler-validation"; }
  std::string description() const override {
    return "dynamics-sampled equilibria vs the exhaustive census";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 7, "number of players");
    args.add_int("runs", 300, "dynamics runs per link cost");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));
    const int runs = static_cast<int>(ctx.args.get_int("runs"));

    const std::vector<double> taus = {2.12, 2.998, 4.24, 8.48, 16.96, 33.92};
    const auto points =
        census_sweep(n, taus, {.include_ucg = false, .threads = ctx.threads});

    // One shard per link cost with its own RNG stream — the sampled sets
    // are independent of both the thread count and the tau ordering.
    std::vector<sampler_result> samples(taus.size());
    for_each_shard(taus.size(), ctx.threads, ctx.seed,
                   [&](std::size_t t, rng& shard_rng) {
                     samples[t] = sample_bcg_equilibria(
                         n, taus[t] / 2.0, shard_rng, {.runs = runs});
                   });

    text_table table({"alpha_BCG", "census#", "sampled#", "coverage",
                      "censusAvgPoA", "sampledAvgPoA", "censusAvgLinks",
                      "sampledAvgLinks"});
    for (std::size_t t = 0; t < taus.size(); ++t) {
      const double alpha = taus[t] / 2.0;
      const auto& sample = samples[t];
      const auto& census = points[t].bcg;
      const double coverage =
          census.count > 0 ? static_cast<double>(sample.equilibria.size()) /
                                 static_cast<double>(census.count)
                           : 0.0;
      table.add_row({fmt_double(alpha, 3), std::to_string(census.count),
                     std::to_string(sample.equilibria.size()),
                     fmt_double(100.0 * coverage, 1) + "%",
                     fmt_double(census.avg_poa, 4),
                     fmt_double(sample.average_poa(), 4),
                     fmt_double(census.avg_edges, 2),
                     fmt_double(sample.average_edges(), 2)});
    }

    ctx.out << "=== Sampler validation: dynamics-reachable equilibria vs "
               "exhaustive census (n="
            << n << ", " << runs << " runs/alpha) ===\n";
    table.print(ctx.out);
    ctx.out << "\ncoverage = fraction of census equilibrium classes reached "
               "by myopic dynamics from\nrandom starts. Sampled averages "
               "weight equilibria by reachability, the exhaustive census\n"
               "weights them uniformly — both are reported by Figures 2/3 "
               "conventions.\n";
    ctx.emit("sampler_validation", table);
    return 0;
  }
};

// --- quickstart: the worked example as a scenario -------------------------

class quickstart_scenario final : public scenario {
 public:
  std::string name() const override { return "quickstart"; }
  std::string description() const override {
    return "the bilateral connection game in ten minutes: stability "
           "windows, PoA, myopic dynamics";
  }
  void configure(arg_parser& args) const override {
    args.add_int("n", 8, "number of players");
    args.add_double("alpha", 2.0, "link cost for the cost comparison");
  }

  int run(run_context& ctx) const override {
    const int n = static_cast<int>(ctx.args.get_int("n"));

    ctx.out << "== bilatnet quickstart: " << n << " players ==\n\n";

    const graph hub = star(n);
    const graph ring = cycle(n);
    const graph clique = complete(n);

    text_table windows({"graph", "alpha_min", "alpha_max"});
    for (const auto& [name, g] : {std::pair<const char*, graph>{"star", hub},
                                  {"cycle", ring},
                                  {"complete", clique}}) {
      const stability_interval window = compute_stability_interval(g);
      ctx.out << name << ": stable for alpha in ("
              << fmt_alpha(window.alpha_min) << ", "
              << fmt_alpha(window.alpha_max) << "]\n";
      windows.add_row({name, fmt_alpha(window.alpha_min),
                       fmt_alpha(window.alpha_max)});
    }
    ctx.emit("stability_windows", windows);

    const double alpha = ctx.args.get_double("alpha");
    const connection_game game{n, alpha, link_rule::bilateral};
    ctx.out << "\nAt alpha = " << alpha << " (total per-edge cost "
            << game.edge_social_cost() << "):\n";
    ctx.out << "  social optimum  = " << optimal_social_cost(game) << "  (the "
            << (alpha < 1 ? "complete graph" : "star") << ")\n";
    for (const auto& [name, g] : {std::pair<const char*, graph>{"star", hub},
                                  {"cycle", ring},
                                  {"complete", clique}}) {
      ctx.out << "  " << name << ": C(G) = " << social_cost(g, game).finite
              << ", PoA = " << fmt_double(price_of_anarchy(g, game), 3)
              << (is_pairwise_stable(g, alpha) ? "  [stable]" : "  [unstable]")
              << "\n";
    }

    if (const auto violation = find_stability_violation(clique, alpha)) {
      ctx.out << "\ncomplete graph at alpha=" << alpha << ": "
              << violation->describe() << "\n";
    }

    rng random(ctx.seed);
    const auto outcome = run_pairwise_dynamics(graph(n), alpha, random);
    ctx.out << "\nmyopic link dynamics from the empty network ("
            << outcome.steps << " moves): " << to_string(outcome.final)
            << "\n  converged = " << (outcome.converged ? "yes" : "no")
            << ", pairwise stable = "
            << (is_pairwise_stable(outcome.final, alpha) ? "yes" : "no")
            << ", PoA = "
            << fmt_double(price_of_anarchy(outcome.final, game), 3) << "\n";
    return 0;
  }
};

}  // namespace

void register_builtin_scenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = scenario_registry::global();
    registry.add(std::make_unique<census_figure_scenario>(
        census_figure_scenario::spec{
            .name = "fig2",
            .description = "Figure 2: average PoA of equilibrium networks "
                           "vs link cost (BCG and UCG)",
            .table_fn = figure2_table,
            .table_name = "figure2",
            .banner_title = "Figure 2: average PoA vs link cost",
            .show_topology_count = true,
            .footer_prefix =
                "series aligned by total per-edge cost tau (paper x-axis: "
                "log(alpha_UCG) = log(2 alpha_BCG));\n"}));
    registry.add(std::make_unique<census_figure_scenario>(
        census_figure_scenario::spec{
            .name = "fig3",
            .description = "Figure 3: average link count of equilibrium "
                           "networks vs link cost (BCG and UCG)",
            .table_fn = figure3_table,
            .table_name = "figure3",
            .banner_title = "Figure 3: average #links vs link cost",
            .footer_prefix = ""}));
    registry.add(std::make_unique<poa_curve_scenario>());
    registry.add(std::make_unique<price_of_stability_scenario>());
    registry.add(std::make_unique<sampler_validation_scenario>());
    registry.add(std::make_unique<quickstart_scenario>());
  });
}

}  // namespace bnf
