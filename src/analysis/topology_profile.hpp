// The per-topology profiling core shared by the grid census, the
// materialized record builder, and the streaming breakpoint engine:
// ONE exact stability analysis per topology yields everything that is
// alpha-independent about it — both games' equilibrium certificates plus
// the integer ingredients of the social-cost line
// alpha * edges + distance_total.
//
// Every census statistic depends on a topology only through that profile,
// and the 11.7M connected topologies on ten vertices share under a
// thousand distinct BCG profiles. build_profile_histogram therefore walks a census
// once and keeps just (distinct profile -> multiplicity): the grid census
// and the streaming engine both evaluate that histogram, so their memory
// is proportional to the number of distinct profiles, not topologies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "equilibria/pairwise_stability.hpp"
#include "equilibria/ucg_nash.hpp"
#include "graph/graph.hpp"

namespace bnf {

struct topology_profile {
  int edges{0};
  long long distance_total{0};  // sum over ordered pairs
  /// Exact pairwise-stability window (alpha_BCG units), as
  /// compute_stability_record returns it.
  alpha_interval bcg_interval;
  /// Exact UCG Nash region (alpha_UCG units). Empty when include_ucg was
  /// false.
  alpha_interval_set ucg;
  /// Work tallies, not part of the profile's identity: the BFS the BCG
  /// window spent on edges in no triangle (bcg_summary::fallback_bfs),
  /// and the UCG region search's ucg_region_result counts (zero without
  /// UCG).
  int bcg_fallback_bfs{0};
  long long ucg_player_intervals{0};
  long long ucg_orientations{0};
  long long ucg_bfs{0};
};

/// Profile one connected topology. `ucg_clamp` restricts the UCG region
/// search (pass the default full interval when every threshold is needed,
/// e.g. for breakpoint enumeration); `scratch` is the per-thread region
/// search arena — callers looping over topologies reuse one workspace per
/// thread so the DFS state is allocated once, not once per topology.
[[nodiscard]] topology_profile profile_topology(const graph& g,
                                                bool include_ucg,
                                                const alpha_interval& ucg_clamp,
                                                ucg_region_workspace& scratch);

/// One distinct profile of a census and the number of topologies that
/// share it.
struct profile_bin {
  int edges{0};
  long long distance_total{0};
  alpha_interval bcg_interval;  // alpha_BCG units
  alpha_interval_set ucg;       // alpha_UCG units; empty without UCG
  long long multiplicity{0};
};

/// A whole census in histogram form.
struct profile_histogram {
  std::uint64_t topologies{0};  // sum of the multiplicities
  /// One bin per distinct profile, in a fixed order that depends only on
  /// the profiles (never on the thread count).
  std::vector<profile_bin> bins;
  /// Bytes of the per-shard map entries, which all live until the merge.
  std::size_t bytes{0};
};

struct profile_histogram_options {
  bool include_ucg{true};
  /// UCG search clamp, as in profile_topology (default: full domain).
  alpha_interval ucg_clamp{};
  int threads{0};  // 0 = hardware concurrency
  /// Trace span opened around each shard.
  const char* shard_span{"census.shard"};
};

/// Profile every connected topology on n vertices once and histogram the
/// profiles. 128 fixed shards stream their classes out of the orderly
/// generator (gen/enumerate.hpp), each filling its own sorted
/// (profile -> multiplicity) map; the maps merge in fixed shard order, so
/// the result is identical at every thread count. Two topologies share a
/// bin exactly when every field of their profiles is equal as stored,
/// except that all empty BCG intervals count as one (equal values in a
/// different num/den form would get separate bins, which no statistic can
/// tell apart). Requires 2 <= n <= max_enumeration_order.
[[nodiscard]] profile_histogram build_profile_histogram(
    int n, const profile_histogram_options& options = {});

}  // namespace bnf
