#include "analysis/topology_profile.hpp"

#include <array>
#include <compare>
#include <map>
#include <span>
#include <string>

#include "gen/enumerate.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace bnf {

topology_profile profile_topology(const graph& g, bool include_ucg,
                                  const alpha_interval& ucg_clamp,
                                  ucg_region_workspace& scratch) {
  topology_profile profile;
  profile.edges = g.size();
  profile.distance_total = total_distance(g).sum;
  profile.bcg = compute_stability_record(g);
  profile.bcg_interval = to_alpha_interval(profile.bcg);
  if (include_ucg) {
    profile.ucg = ucg_nash_alpha_region(g, ucg_clamp, scratch).region;
  }
  return profile;
}

namespace {

// An interval as raw integers: both endpoints' num/den, then the two
// closedness bits.
constexpr std::size_t interval_width = 5;

void put_interval(const alpha_interval& interval,
                  std::span<long long, interval_width> out) {
  out[0] = interval.lo.num;
  out[1] = interval.lo.den;
  out[2] = interval.hi.num;
  out[3] = interval.hi.den;
  out[4] = (interval.lo_closed ? 1 : 0) | (interval.hi_closed ? 2 : 0);
}

alpha_interval get_interval(std::span<const long long, interval_width> in) {
  return {rational{in[0], in[1]}, rational{in[2], in[3]}, (in[4] & 1) != 0,
          (in[4] & 2) != 0};
}

// A profile's exact identity as a fixed record of integers: edges,
// distance total, the BCG interval, the UCG component count and the first
// UCG component. Components beyond the first go to `tail`, which stays
// empty — and allocation-free — for every region with at most one
// component (all of them, in every census run to date).
struct profile_key {
  static constexpr std::size_t ucg_first = 2 + interval_width + 1;
  std::array<long long, ucg_first + interval_width> head{};
  std::vector<long long> tail;

  friend auto operator<=>(const profile_key&, const profile_key&) = default;
};

profile_key key_of(const topology_profile& profile) {
  profile_key key;
  key.head[0] = profile.edges;
  key.head[1] = profile.distance_total;
  // Every empty interval excludes every alpha and notes no breakpoint, so
  // all of them share the canonical form.
  put_interval(profile.bcg_interval.empty() ? alpha_interval::empty_interval()
                                            : profile.bcg_interval,
               std::span(key.head).subspan<2, interval_width>());
  const std::vector<alpha_interval>& parts = profile.ucg.parts();
  key.head[profile_key::ucg_first - 1] = static_cast<long long>(parts.size());
  if (!parts.empty()) {
    put_interval(parts.front(), std::span(key.head)
                                    .subspan<profile_key::ucg_first,
                                             interval_width>());
  }
  for (std::size_t i = 1; i < parts.size(); ++i) {
    std::array<long long, interval_width> fields{};
    put_interval(parts[i], fields);
    key.tail.insert(key.tail.end(), fields.begin(), fields.end());
  }
  return key;
}

profile_bin bin_of(const profile_key& key, long long multiplicity) {
  profile_bin bin;
  bin.edges = static_cast<int>(key.head[0]);
  bin.distance_total = key.head[1];
  bin.bcg_interval =
      get_interval(std::span(key.head).subspan<2, interval_width>());
  if (key.head[profile_key::ucg_first - 1] > 0) {
    bin.ucg.add(get_interval(
        std::span(key.head)
            .subspan<profile_key::ucg_first, interval_width>()));
  }
  for (std::size_t i = 0; i < key.tail.size(); i += interval_width) {
    bin.ucg.add(get_interval(
        std::span(key.tail).subspan(i).first<interval_width>()));
  }
  bin.multiplicity = multiplicity;
  return bin;
}

}  // namespace

profile_histogram build_profile_histogram(
    int n, const profile_histogram_options& options) {
  expects(n >= 2 && n <= max_enumeration_order,
          "build_profile_histogram: requires 2 <= n <= " +
              std::to_string(max_enumeration_order));

  // Sharding is FIXED (independent of the thread count) and the shard
  // maps merge in shard order, so the histogram is the same on 1 thread
  // or 64.
  constexpr std::size_t shard_count = 128;
  const enumeration_plan plan(
      n, shard_count, {.connected_only = true, .threads = options.threads});
  using shard_map = std::map<profile_key, long long>;
  std::vector<shard_map> shard_bins(shard_count);
  std::vector<std::uint64_t> shard_topologies(shard_count, 0);

  // Telemetry: registry references resolved once; each shard flushes one
  // counter add and one histogram record, so the per-topology path stays
  // untouched.
  obs::counter& shards_done = obs::get_counter(obs::names::shards_done);
  obs::counter& topologies_profiled =
      obs::get_counter(obs::names::topologies_profiled);
  obs::histogram& shard_wall = obs::get_histogram(obs::names::shard_wall_ms);
  obs::histogram& shard_sizes =
      obs::get_histogram(obs::names::shard_topologies);
  obs::get_counter(obs::names::shards_planned).add(shard_count);

  const int threads =
      options.threads > 0 ? options.threads : default_thread_count();
  parallel_for_chunks(shard_count, threads, [&](std::size_t shard_begin,
                                                std::size_t shard_end) {
    // One region-search arena per worker chunk: every topology in these
    // shards reuses the same DFS scratch.
    ucg_region_workspace scratch;
    for (std::size_t shard = shard_begin; shard < shard_end; ++shard) {
      obs::trace_span span(options.shard_span);
      span.arg("shard", shard);
      stopwatch shard_timer;
      shard_map& bins = shard_bins[shard];
      shard_topologies[shard] =
          plan.for_each_key(shard, [&](std::uint64_t key) {
            const graph g = graph::from_key64(n, key);
            ++bins[key_of(profile_topology(g, options.include_ucg,
                                           options.ucg_clamp, scratch))];
          });
      span.arg("topologies", shard_topologies[shard]);
      shards_done.add(1);
      topologies_profiled.add(shard_topologies[shard]);
      shard_wall.record(
          static_cast<std::uint64_t>(shard_timer.seconds() * 1000.0));
      shard_sizes.record(shard_topologies[shard]);
    }
  });

  profile_histogram histogram;
  shard_map merged;
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    histogram.topologies += shard_topologies[shard];
    histogram.bytes += shard_bins[shard].size() * sizeof(shard_map::value_type);
    for (const auto& [key, multiplicity] : shard_bins[shard]) {
      long long& total = merged[key];
      total = checked_add(total, multiplicity);
    }
    shard_bins[shard].clear();
  }
  histogram.bins.reserve(merged.size());
  for (const auto& [key, multiplicity] : merged) {
    histogram.bins.push_back(bin_of(key, multiplicity));
  }
  return histogram;
}

}  // namespace bnf
