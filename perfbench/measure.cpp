// perfbench_measure: the measurement core of the repository benchmark.
// perfbench/run.py builds it, calls it once per benchmark run, checks what
// it reports and turns its raw numbers into the published metrics (see
// perfbench/README.md).
//
// Two workload kinds:
//   census    stream_poa_curve(n) on --threads workers, UCG on unless
//             --skip-ucg. The inputs are the enumeration_plan.
//   dynamics  seeded sample_ucg_equilibria(n, alpha) for every alpha in
//             dynamics_alphas, --runs runs each, one thread. The inputs are
//             the seeded starting ownership profiles.
//
// Default mode: run the workload through its public entry point with
// tracing off, repeating while another repetition fits in --seconds (always
// at least once). Before every repetition the inputs are built
// setup_builds_per_rep times; those builds are the setup-time samples.
//
// --trace mode: one base run of the entry point, then a replay of the same
// work call by call through each layer's public functions, timed from
// here. Aggregates stay in memory and are printed once, at the end, as the
// per-layer metrics. The census base run keeps the program's own
// shard-level trace session on (258 spans, one per shard and pass plus
// merge and reduce); the analysis and engine metrics come from those spans.
//
// Prints one JSON object on stdout; exits 1 with a message on stderr on
// any error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/poa_curve.hpp"
#include "analysis/report.hpp"
#include "dynamics/br_dynamics.hpp"
#include "dynamics/sampler.hpp"
#include "engine/sink.hpp"
#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "graph/canonical.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/arg_parse.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using bnf::graph;
using steady = std::chrono::steady_clock;

// The streaming engine's fixed shard scheme (analysis/poa_curve.cpp); the
// replay walks the same shards so its shard balance matches the pipeline.
constexpr std::size_t census_shards = 128;

// Link costs of the dynamics workload: exact binary fractions spanning the
// dense (alpha < 1) to the tree-like (alpha >> n) equilibria.
constexpr std::array<double, 5> dynamics_alphas = {0.75, 1.5, 3.0, 6.0, 12.0};

// Input builds timed before each repetition; setup_s is their median.
constexpr int setup_builds_per_rep = 5;

struct workload {
  std::string kind;
  int n{0};
  int threads{1};
  bool include_ucg{true};
  int runs{0};
  std::uint64_t seed{0};
  double seconds{1.0};
  std::string out_dir;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t elapsed_ns(steady::time_point from, steady::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Value at quantile q of the samples (nearest rank); 0 when empty.
double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

/// `open` + body + `close`, built by appends (GCC 12 misreads the
/// `"[" + std::string` form as an overlapping memcpy under -Wrestrict).
std::string enclose(char open, const std::string& body, char close) {
  std::string out(1, open);
  out += body;
  out += close;
  return out;
}

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return out.str();
}

/// Flat JSON object writer for the single output line.
class json_object {
 public:
  json_object& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  json_object& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  json_object& list(const std::string& key, const std::vector<double>& values) {
    std::ostringstream body;
    for (std::size_t i = 0; i < values.size(); ++i) {
      body << (i > 0 ? "," : "") << json_number(values[i]);
    }
    return raw(key, enclose('[', body.str(), ']'));
  }
  json_object& strings(const std::string& key,
                       const std::vector<std::string>& values) {
    std::ostringstream body;
    for (std::size_t i = 0; i < values.size(); ++i) {
      body << (i > 0 ? ",\"" : "\"") << bnf::json_escape(values[i]) << '"';
    }
    return raw(key, enclose('[', body.str(), ']'));
  }
  json_object& raw(const std::string& key, const std::string& json) {
    body_ << (empty_ ? "\"" : ",\"") << bnf::json_escape(key) << "\":" << json;
    empty_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return enclose('{', body_.str(), '}'); }

 private:
  std::ostringstream body_;
  bool empty_{true};
};

/// What every mode reports besides its timings: inputs for the checks
/// run.py makes against its pinned values, and the checks made here.
struct check_report {
  std::vector<double> topology_counts;  // census sizes, vs OEIS A001349
  std::vector<std::string> csv_paths;   // census CSVs, vs pinned digests
  std::uint64_t checked{0};
  std::uint64_t failed{0};

  void expect(bool ok) {
    ++checked;
    if (!ok) ++failed;
  }
  void add_to(json_object& out) const {
    out.list("topology_counts", topology_counts)
        .strings("csv", csv_paths)
        .count("checked", checked)
        .count("failed", failed);
  }
};

struct rep_timing {
  double wall_s{0};
  double cpu_s{0};
  double items{0};
};

std::string reps_json(const std::vector<rep_timing>& reps) {
  std::ostringstream body;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    body << (i > 0 ? "," : "")
         << json_object()
                .num("wall_s", reps[i].wall_s)
                .num("cpu_s", reps[i].cpu_s)
                .num("items", reps[i].items)
                .str();
  }
  return enclose('[', body.str(), ']');
}

struct measured {
  std::vector<double> setup_s;
  std::vector<rep_timing> reps;
};

/// Before every repetition, build the inputs with `setup()`
/// setup_builds_per_rep times, timing each build, so the setup samples span the run just as the
/// repetitions do. Then time `run()`; after it, untimed, `check(rep,
/// result)` verifies the result and returns the items it covered. Repeats
/// while another repetition still fits in w.seconds (judged by the median
/// repetition so far); always at least once.
template <typename Setup, typename Run, typename Check>
measured repeat_for(const workload& w, Setup setup, Run run, Check check) {
  measured out;
  std::vector<double> walls;
  const bnf::stopwatch budget;
  do {
    for (int i = 0; i < setup_builds_per_rep; ++i) {
      const bnf::stopwatch setup_timer;
      setup();
      out.setup_s.push_back(setup_timer.seconds());
    }
    const double cpu0 = cpu_seconds();
    const bnf::stopwatch timer;
    const auto result = run();
    const double wall = timer.seconds();
    const double cpu = cpu_seconds() - cpu0;
    out.reps.push_back({wall, cpu, check(out.reps.size(), result)});
    walls.push_back(wall);
  } while (budget.seconds() + quantile(walls, 0.5) <= w.seconds);
  return out;
}

std::string measured_json(const measured& m, const check_report& checks) {
  json_object out;
  out.list("setup_s", m.setup_s).raw("reps", reps_json(m.reps));
  checks.add_to(out);
  return out.count("peak_rss_bytes", bnf::peak_rss_bytes()).str();
}

// --- census ----------------------------------------------------------------

bnf::poa_stream_options census_options(const workload& w) {
  return {.include_ucg = w.include_ucg, .threads = w.threads};
}

/// The CSV bytes `bilatnet run poa-curve --csv` writes for this curve.
void write_census_csv(const bnf::poa_curve_summary& curve,
                      const std::string& path) {
  bnf::csv_sink sink(path);
  sink.begin_run({});
  sink.write_table("poa_breakpoints", bnf::poa_breakpoints_table(curve));
  sink.write_table("poa_curve", bnf::poa_curve_table(curve));
  sink.end_run({});
}

/// The census inputs: the streaming engine's shard plan.
bnf::enumeration_plan census_plan(const workload& w) {
  return bnf::enumeration_plan(
      w.n, census_shards, {.connected_only = true, .threads = w.threads});
}

std::string census_e2e(const workload& w) {
  check_report checks;
  const measured m = repeat_for(
      w, [&] { static_cast<void>(census_plan(w)); },
      [&] { return bnf::stream_poa_curve(w.n, census_options(w)); },
      [&](std::size_t rep, const bnf::poa_curve_summary& curve) {
        const std::string path =
            w.out_dir + "/census-rep" + std::to_string(rep) + ".csv";
        write_census_csv(curve, path);
        checks.csv_paths.push_back(path);
        checks.topology_counts.push_back(static_cast<double>(curve.topologies));
        return static_cast<double>(curve.topologies);
      });
  return measured_json(m, checks);
}

/// Per-shard aggregates of the traced census replay; each shard is
/// written by the one worker that owns it.
struct shard_stats {
  std::uint64_t loop_ns{0};      // whole for_each_key call
  std::uint64_t callback_ns{0};  // inside the callback
  std::uint64_t decode_ns{0};
  std::uint64_t distance_ns{0};
  std::uint64_t bcg_ns{0};
  std::uint64_t ucg_ns{0};
  std::uint64_t keys{0};
  std::uint64_t player_intervals{0};
  std::uint64_t orientations{0};
  std::uint64_t checksum{0};  // keeps every result observable
  std::vector<double> ucg_call_us;
};

struct census_spans {
  std::vector<double> pass1_ms;
  double pass1_wall_s{0};  // first pass-1 start to last pass-1 end
  double accumulate_s{0};  // summed pass-2 shard spans
  double merge_s{0};
  double reduce_s{0};
};

census_spans read_census_spans(const std::string& trace_json) {
  census_spans spans;
  std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last = 0;
  const bnf::json_value doc = bnf::json_value::parse(trace_json);
  for (const bnf::json_value& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() != "X") continue;
    const std::string& name = event.at("name").as_string();
    const std::uint64_t ts = event.at("ts").as_uint();
    const std::uint64_t dur = event.at("dur").as_uint();
    const double dur_s = static_cast<double>(dur) * 1e-6;
    if (name == "poa.pass1.shard") {
      spans.pass1_ms.push_back(dur_s * 1e3);
      first = std::min(first, ts);
      last = std::max(last, ts + dur);
    } else if (name == "poa.pass2.shard") {
      spans.accumulate_s += dur_s;
    } else if (name == "poa.merge_breakpoints") {
      spans.merge_s += dur_s;
    } else if (name == "poa.reduce") {
      spans.reduce_s += dur_s;
    }
  }
  if (last > first) spans.pass1_wall_s = static_cast<double>(last - first) * 1e-6;
  return spans;
}

std::uint64_t counter_value(const char* name) {
  return bnf::obs::get_counter(name).value();
}

std::string census_trace(const workload& w) {
  namespace names = bnf::obs::names;
  check_report checks;

  // Base run: the pipeline with only its own shard-level spans.
  const std::uint64_t arena0 = counter_value(names::profile_arena_bytes);
  bnf::obs::trace_session::begin();
  const double cpu0 = cpu_seconds();
  const bnf::stopwatch base_timer;
  const bnf::poa_curve_summary curve =
      bnf::stream_poa_curve(w.n, census_options(w));
  const double base_wall = base_timer.seconds();
  const double base_cpu = cpu_seconds() - cpu0;
  std::ostringstream trace;
  bnf::obs::trace_session::end_to_stream(trace);
  const std::uint64_t arena = counter_value(names::profile_arena_bytes) - arena0;
  const census_spans spans = read_census_spans(trace.str());
  const std::string path = w.out_dir + "/census-base.csv";
  write_census_csv(curve, path);
  checks.csv_paths.push_back(path);
  checks.topology_counts.push_back(static_cast<double>(curve.topologies));

  // Replay: pass 1 of the pipeline, one timed call per layer and topology.
  const bnf::enumeration_plan plan = census_plan(w);
  const std::uint64_t candidates0 = counter_value(names::orderly_candidates);
  const std::uint64_t prefilter0 = counter_value(names::orderly_prefilter_rejects);
  const std::uint64_t orbit0 = counter_value(names::orderly_orbit_rejects);
  const std::uint64_t accepts0 = counter_value(names::orderly_accepts);
  std::vector<shard_stats> stats(census_shards);
  const bnf::stopwatch replay_timer;
  bnf::parallel_for_chunks(
      census_shards, w.threads, [&](std::size_t begin, std::size_t end) {
        bnf::ucg_region_workspace scratch;
        for (std::size_t shard = begin; shard < end; ++shard) {
          shard_stats& s = stats[shard];
          const auto loop0 = steady::now();
          s.keys = plan.for_each_key(shard, [&](std::uint64_t key) {
            const auto t0 = steady::now();
            const graph g = graph::from_key64(w.n, key);
            const auto t1 = steady::now();
            const long long distance = bnf::total_distance(g).sum;
            const auto t2 = steady::now();
            const bnf::alpha_interval bcg =
                bnf::to_alpha_interval(bnf::compute_stability_record(g));
            const auto t3 = steady::now();
            s.decode_ns += elapsed_ns(t0, t1);
            s.distance_ns += elapsed_ns(t1, t2);
            s.bcg_ns += elapsed_ns(t2, t3);
            s.checksum += static_cast<std::uint64_t>(distance + g.size()) +
                          static_cast<std::uint64_t>(bcg.lo.num);
            auto t_end = t3;
            if (w.include_ucg) {
              const bnf::ucg_region_result region =
                  bnf::ucg_nash_alpha_region(g, {}, scratch);
              t_end = steady::now();
              const std::uint64_t ucg_ns = elapsed_ns(t3, t_end);
              s.ucg_ns += ucg_ns;
              s.ucg_call_us.push_back(static_cast<double>(ucg_ns) * 1e-3);
              s.player_intervals +=
                  static_cast<std::uint64_t>(region.player_intervals_computed);
              s.orientations +=
                  static_cast<std::uint64_t>(region.orientations_tried);
              s.checksum += region.region.parts().size();
            }
            s.callback_ns += elapsed_ns(t0, t_end);
          });
          s.loop_ns = elapsed_ns(loop0, steady::now());
        }
      });
  const double replay_wall = replay_timer.seconds();

  shard_stats total;
  for (const shard_stats& s : stats) {
    total.loop_ns += s.loop_ns;
    total.callback_ns += s.callback_ns;
    total.decode_ns += s.decode_ns;
    total.distance_ns += s.distance_ns;
    total.bcg_ns += s.bcg_ns;
    total.ucg_ns += s.ucg_ns;
    total.keys += s.keys;
    total.player_intervals += s.player_intervals;
    total.orientations += s.orientations;
    total.checksum += s.checksum;
    total.ucg_call_us.insert(total.ucg_call_us.end(), s.ucg_call_us.begin(),
                             s.ucg_call_us.end());
  }
  checks.topology_counts.push_back(static_cast<double>(total.keys));

  const auto candidates =
      static_cast<double>(counter_value(names::orderly_candidates) - candidates0);
  const auto accepts =
      static_cast<double>(counter_value(names::orderly_accepts) - accepts0);
  // Traced wall: the replay stands in for pass 1; everything else the
  // pipeline does (plan, merge, pass 2, reduce) is taken from the base run.
  const double traced_wall = replay_wall + (base_wall - spans.pass1_wall_s);

  json_object layers;
  layers.num("gen.busy_s", ns_to_s(total.loop_ns - total.callback_ns))
      .num("gen.candidates", candidates)
      .num("gen.prefilter_rejects",
           static_cast<double>(counter_value(names::orderly_prefilter_rejects) -
                               prefilter0))
      .num("gen.orbit_rejects",
           static_cast<double>(counter_value(names::orderly_orbit_rejects) - orbit0))
      .num("gen.accepts", accepts)
      .num("gen.accept_ratio", ratio(accepts, candidates))
      .num("graph.decode_busy_s", ns_to_s(total.decode_ns))
      .num("graph.distance_busy_s", ns_to_s(total.distance_ns))
      .num("graph.canon_busy_s", 0.0)
      .num("equilibria.bcg.busy_s", ns_to_s(total.bcg_ns))
      .num("equilibria.bcg.calls", static_cast<double>(total.keys))
      .num("equilibria.ucg.busy_s", ns_to_s(total.ucg_ns))
      .num("equilibria.ucg.region_searches",
           static_cast<double>(total.ucg_call_us.size()))
      .num("equilibria.ucg.player_intervals",
           static_cast<double>(total.player_intervals))
      .num("equilibria.ucg.orientations", static_cast<double>(total.orientations))
      .num("equilibria.ucg.call_p50_us", quantile(total.ucg_call_us, 0.5))
      .num("equilibria.ucg.call_p9999_us", quantile(total.ucg_call_us, 0.9999))
      .num("equilibria.ucg.oracle_busy_s", 0.0)
      .num("equilibria.ucg.oracle_calls", 0.0)
      .num("dynamics.busy_s", 0.0)
      .num("dynamics.runs", 0.0)
      .num("dynamics.rounds", 0.0)
      .num("dynamics.converged_ratio", 0.0)
      .num("dynamics.equilibria", 0.0)
      .num("analysis.merge_s", spans.merge_s)
      .num("analysis.accumulate_s", spans.accumulate_s)
      .num("analysis.reduce_s", spans.reduce_s)
      .num("analysis.profile_arena_bytes", static_cast<double>(arena))
      .num("analysis.breakpoints", static_cast<double>(curve.breakpoints.size()))
      .num("engine.shard_p50_ms", quantile(spans.pass1_ms, 0.5))
      .num("engine.shard_max_ms", quantile(spans.pass1_ms, 1.0))
      .num("engine.parallel_efficiency", ratio(base_cpu, base_wall * w.threads))
      .num("obs.trace_overhead", ratio(traced_wall, base_wall) - 1.0);

  json_object out;
  out.num("base_wall_s", base_wall)
      .num("replay_wall_s", replay_wall)
      .count("replay_checksum", total.checksum)
      .raw("layers", layers.str());
  checks.add_to(out);
  return out.count("peak_rss_bytes", bnf::peak_rss_bytes()).str();
}

// --- dynamics --------------------------------------------------------------

/// Independent stream per alpha, derived from the workload seed.
bnf::rng alpha_stream(const workload& w, std::size_t alpha_index) {
  return bnf::rng(w.seed ^ (0x9E3779B97F4A7C15ULL * (alpha_index + 1)));
}

/// One starting ownership profile, drawn the way sample_ucg_equilibria
/// draws it (dynamics/sampler.cpp): run 0 starts empty, every later run
/// has each pair bought by a random endpoint with probability `density`.
bnf::ucg_state draw_start(int n, int run, double density, bnf::rng& random) {
  bnf::ucg_state start(n);
  if (run == 0) return start;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (random.bernoulli(density)) {
        const int buyer = random.bernoulli(0.5) ? i : j;
        const int other = buyer == i ? j : i;
        start.bought[static_cast<std::size_t>(buyer)] |= bnf::bit(other);
      }
    }
  }
  return start;
}

/// The dynamics inputs: every seeded starting ownership profile.
std::vector<bnf::ucg_state> dynamics_starts(const workload& w) {
  const double density = bnf::sampler_options{}.start_density;
  std::vector<bnf::ucg_state> starts;
  starts.reserve(dynamics_alphas.size() * static_cast<std::size_t>(w.runs));
  for (std::size_t a = 0; a < dynamics_alphas.size(); ++a) {
    bnf::rng random = alpha_stream(w, a);
    for (int run = 0; run < w.runs; ++run) {
      starts.push_back(draw_start(w.n, run, density, random));
    }
  }
  return starts;
}

/// Sorted canonical keys of every sampled equilibrium, per alpha.
using key_sets = std::vector<std::vector<std::uint64_t>>;

struct sampled_run {
  std::vector<bnf::sampler_result> per_alpha;
  std::uint64_t runs{0};
};

sampled_run sample_all(const workload& w) {
  sampled_run out;
  for (std::size_t a = 0; a < dynamics_alphas.size(); ++a) {
    bnf::rng random = alpha_stream(w, a);
    out.per_alpha.push_back(
        bnf::sample_ucg_equilibria(w.n, dynamics_alphas[a], random, {.runs = w.runs}));
    out.runs += static_cast<std::uint64_t>(out.per_alpha.back().total_runs);
  }
  return out;
}

key_sets keys_of(const sampled_run& sampled) {
  key_sets keys;
  for (const bnf::sampler_result& result : sampled.per_alpha) {
    auto& set = keys.emplace_back();
    for (const auto& eq : result.equilibria) set.push_back(bnf::canonical_key64(eq.g));
    std::sort(set.begin(), set.end());
  }
  return keys;
}

std::string dynamics_e2e(const workload& w) {
  check_report checks;
  key_sets first_keys;
  const measured m = repeat_for(
      w, [&] { static_cast<void>(dynamics_starts(w)); },
      [&] { return sample_all(w); },
      [&](std::size_t rep, const sampled_run& sampled) {
        // Re-verify the first repetition's equilibria exactly; every later
        // repetition (same inputs) must find the same ones.
        const key_sets keys = keys_of(sampled);
        if (rep == 0) {
          first_keys = keys;
          for (std::size_t a = 0; a < dynamics_alphas.size(); ++a) {
            for (const auto& eq : sampled.per_alpha[a].equilibria) {
              checks.expect(bnf::is_ucg_nash(eq.g, dynamics_alphas[a]));
            }
          }
        } else {
          checks.expect(keys == first_keys);
        }
        return static_cast<double>(sampled.runs);
      });
  return measured_json(m, checks);
}

std::string dynamics_trace(const workload& w) {
  check_report checks;
  const double cpu0 = cpu_seconds();
  const bnf::stopwatch base_timer;
  const sampled_run base = sample_all(w);
  const double base_wall = base_timer.seconds();
  const double base_cpu = cpu_seconds() - cpu0;
  const key_sets base_keys = keys_of(base);

  // Replay of the sampler loop, consuming each alpha's stream in the same
  // order, so it must reach exactly the sampler's equilibria.
  const double density = bnf::sampler_options{}.start_density;
  std::uint64_t dynamics_ns = 0;
  std::uint64_t distance_ns = 0;
  std::uint64_t canon_ns = 0;
  std::uint64_t runs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t converged = 0;
  std::vector<std::map<std::uint64_t, graph>> found(dynamics_alphas.size());
  const bnf::stopwatch replay_timer;
  for (std::size_t a = 0; a < dynamics_alphas.size(); ++a) {
    bnf::rng random = alpha_stream(w, a);
    for (int run = 0; run < w.runs; ++run) {
      const bnf::ucg_state start = draw_start(w.n, run, density, random);
      const auto t0 = steady::now();
      const bnf::br_dynamics_result outcome =
          bnf::run_br_dynamics(start, dynamics_alphas[a], random, {});
      const graph g = outcome.state.realize();
      const auto t1 = steady::now();
      dynamics_ns += elapsed_ns(t0, t1);
      ++runs;
      rounds += static_cast<std::uint64_t>(outcome.rounds);
      if (!outcome.converged) continue;
      ++converged;
      const bool connected = bnf::is_connected(g);
      const auto t2 = steady::now();
      distance_ns += elapsed_ns(t1, t2);
      if (!connected) continue;
      const std::uint64_t key = bnf::canonical_key64(g);
      canon_ns += elapsed_ns(t2, steady::now());
      found[a].try_emplace(key, g);
    }
  }
  const double replay_wall = replay_timer.seconds();

  std::uint64_t oracle_ns = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t equilibria = 0;
  for (std::size_t a = 0; a < dynamics_alphas.size(); ++a) {
    std::vector<std::uint64_t> keys;
    for (const auto& [key, g] : found[a]) {
      const auto t0 = steady::now();
      const bool nash = bnf::is_ucg_nash(g, dynamics_alphas[a]);
      oracle_ns += elapsed_ns(t0, steady::now());
      ++oracle_calls;
      checks.expect(nash);
      keys.push_back(key);
    }
    equilibria += keys.size();
    checks.expect(keys == base_keys[a]);
  }

  json_object layers;
  layers.num("gen.busy_s", 0.0)
      .num("gen.candidates", 0.0)
      .num("gen.prefilter_rejects", 0.0)
      .num("gen.orbit_rejects", 0.0)
      .num("gen.accepts", 0.0)
      .num("gen.accept_ratio", 0.0)
      .num("graph.decode_busy_s", 0.0)
      .num("graph.distance_busy_s", ns_to_s(distance_ns))
      .num("graph.canon_busy_s", ns_to_s(canon_ns))
      .num("equilibria.bcg.busy_s", 0.0)
      .num("equilibria.bcg.calls", 0.0)
      .num("equilibria.ucg.busy_s", 0.0)
      .num("equilibria.ucg.region_searches", 0.0)
      .num("equilibria.ucg.player_intervals", 0.0)
      .num("equilibria.ucg.orientations", 0.0)
      .num("equilibria.ucg.call_p50_us", 0.0)
      .num("equilibria.ucg.call_p9999_us", 0.0)
      .num("equilibria.ucg.oracle_busy_s", ns_to_s(oracle_ns))
      .num("equilibria.ucg.oracle_calls", static_cast<double>(oracle_calls))
      .num("dynamics.busy_s", ns_to_s(dynamics_ns))
      .num("dynamics.runs", static_cast<double>(runs))
      .num("dynamics.rounds", static_cast<double>(rounds))
      .num("dynamics.converged_ratio",
           ratio(static_cast<double>(converged), static_cast<double>(runs)))
      .num("dynamics.equilibria", static_cast<double>(equilibria))
      .num("analysis.merge_s", 0.0)
      .num("analysis.accumulate_s", 0.0)
      .num("analysis.reduce_s", 0.0)
      .num("analysis.profile_arena_bytes", 0.0)
      .num("analysis.breakpoints", 0.0)
      .num("engine.shard_p50_ms", 0.0)
      .num("engine.shard_max_ms", 0.0)
      .num("engine.parallel_efficiency", ratio(base_cpu, base_wall * w.threads))
      .num("obs.trace_overhead", ratio(replay_wall, base_wall) - 1.0);

  json_object out;
  out.num("base_wall_s", base_wall)
      .num("replay_wall_s", replay_wall)
      .raw("layers", layers.str());
  checks.add_to(out);
  return out.count("peak_rss_bytes", bnf::peak_rss_bytes()).str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bnf::arg_parser args("perfbench_measure",
                         "measurement core of perfbench/run.py");
    args.add_string("kind", "census", "census | dynamics");
    args.add_int("n", 9, "number of players");
    args.add_int("threads", 1, "worker threads");
    args.add_flag("skip-ucg", "census: BCG only");
    args.add_int("runs", 400, "dynamics: runs per alpha");
    args.add_int("seed", 1, "dynamics: workload seed");
    args.add_double("seconds", 1.0, "measure for at most this long");
    args.add_string("out", ".", "directory for the census CSVs");
    args.add_flag("trace", "per-layer replay instead of the timed runs");
    if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
      std::cout << args.usage();
      return 0;
    }
    workload w;
    w.kind = args.get_string("kind");
    w.n = static_cast<int>(args.get_int("n"));
    w.threads = static_cast<int>(args.get_int("threads"));
    w.include_ucg = !args.get_flag("skip-ucg");
    w.runs = static_cast<int>(args.get_int("runs"));
    w.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    w.seconds = args.get_double("seconds");
    w.out_dir = args.get_string("out");
    bnf::expects(w.threads >= 1 && w.runs >= 1,
                 "perfbench_measure: --threads and --runs must be positive");
    const bool trace = args.get_flag("trace");
    if (w.kind == "census") {
      std::cout << (trace ? census_trace(w) : census_e2e(w)) << "\n";
    } else if (w.kind == "dynamics") {
      std::cout << (trace ? dynamics_trace(w) : dynamics_e2e(w)) << "\n";
    } else {
      std::cerr << "perfbench_measure: unknown --kind '" << w.kind << "'\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_measure: " << error.what() << "\n";
    return 1;
  }
}
