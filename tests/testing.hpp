// Shared test scaffolding: canonical small fixtures from gen/named and a
// deterministic per-test RNG so every randomized suite is bit-reproducible
// without scattering magic seed literals across files.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "equilibria/pairwise_stability.hpp"
#include "gen/named.hpp"
#include "gen/random.hpp"
#include "graph/canonical.hpp"
#include "graph/graph.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace bnf::testing {

/// FNV-1a over the tag: stable across platforms and runs, so a test's
/// random stream depends only on its name, not on suite ordering.
constexpr std::uint64_t seed_of(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char ch : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Deterministic rng keyed by an explicit tag.
inline rng seeded_rng(std::string_view tag) { return rng(seed_of(tag)); }

/// Deterministic rng keyed by the currently running googletest case
/// ("Suite.Name"). Each TEST gets its own fixed, independent stream.
inline rng seeded_rng() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = "bnf.unseeded";
  if (info != nullptr) {
    tag = std::string(info->test_suite_name()) + "." + info->name();
  }
  return seeded_rng(tag);
}

/// Canonical small fixtures. Paths P_2..P_{max_n}.
inline std::vector<graph> small_paths(int max_n = 7) {
  std::vector<graph> out;
  for (int n = 2; n <= max_n; ++n) out.push_back(path(n));
  return out;
}

/// Cycles C_3..C_{max_n}.
inline std::vector<graph> small_cycles(int max_n = 7) {
  std::vector<graph> out;
  for (int n = 3; n <= max_n; ++n) out.push_back(cycle(n));
  return out;
}

/// Stars K_{1,2}..K_{1,max_n-1}.
inline std::vector<graph> small_stars(int max_n = 7) {
  std::vector<graph> out;
  for (int n = 3; n <= max_n; ++n) out.push_back(star(n));
  return out;
}

/// The union gallery: every path, cycle and star fixture in one sweep —
/// the canonical input set for invariance-style assertions.
inline std::vector<graph> small_gallery(int max_n = 7) {
  std::vector<graph> out = small_paths(max_n);
  for (auto& g : small_cycles(max_n)) out.push_back(std::move(g));
  for (auto& g : small_stars(max_n)) out.push_back(std::move(g));
  return out;
}

/// A random connected graph with uniformly drawn order in [lo_n, hi_n] and
/// a sparse edge budget — the workhorse input for the property suites.
inline graph random_connected(rng& random, int lo_n = 4, int hi_n = 10) {
  const int n =
      lo_n + static_cast<int>(
                 random.below(static_cast<std::uint64_t>(hi_n - lo_n + 1)));
  const int max_edges = n * (n - 1) / 2;
  const int m = std::min(
      max_edges,
      n - 1 + static_cast<int>(
                  random.below(static_cast<std::uint64_t>(2 * n))));
  return random_connected_gnm(n, m, random);
}

/// The BCG stability window rebuilt the long way from the public per-link
/// BFS deltas: alpha_min first, then the boundary verdict against the
/// final alpha_min, then alpha_max. The independent reference for
/// compute_stability_record, which builds the window in one pass from
/// distance balls. Requires connected g.
inline alpha_interval two_pass_stability_record(const graph& g) {
  long long alpha_min = 0;
  for (const auto& [u, v] : g.non_edges()) {
    alpha_min = std::max(alpha_min, std::min(edge_addition_decrease(g, u, v),
                                             edge_addition_decrease(g, v, u)));
  }
  bool boundary_stable = true;
  for (const auto& [u, v] : g.non_edges()) {
    const long long dec_u = edge_addition_decrease(g, u, v);
    const long long dec_v = edge_addition_decrease(g, v, u);
    if (std::min(dec_u, dec_v) == alpha_min && dec_u != dec_v) {
      boundary_stable = false;
    }
  }
  long long alpha_max = infinite_delta;
  for (const auto& [u, v] : g.edges()) {
    const long long binding = std::min(edge_deletion_increase(g, u, v),
                                       edge_deletion_increase(g, v, u));
    alpha_max = std::min(alpha_max, binding);
  }
  alpha_interval window;
  window.lo = rational::from_int(alpha_min);
  window.lo_closed = boundary_stable && alpha_min > 0;
  if (alpha_max < infinite_delta) {
    window.hi = rational::from_int(alpha_max);
  } else {
    window.hi_closed = false;
  }
  return window;
}

/// The orderly generator's per-candidate decisions, as the generator
/// first made them.
struct augmentation_verdict {
  bool above_minimum{false};  // the degree pre-filter rejects
  bool accepted{false};       // k shares the canonical deletion orbit
  std::uint64_t key{0};       // canonical key when accepted, else 0
};

/// The independent reference for attachment_degree_filter and
/// canonical_deletion_key: write the new vertex k's row, loop over the
/// child's degrees, run the full canonical_form and compare orbits. The
/// acceptance fields are filled for every subset, even one the pre-filter
/// rejects. Requires subset within parent.vertex_mask() and a child order
/// of at most 11.
inline augmentation_verdict reference_augmentation(const graph& parent,
                                                   std::uint64_t subset) {
  const int k = parent.order();
  graph child = parent.with_vertex();
  for_each_bit(subset, [&](int w) { child.add_edge(k, w); });

  augmentation_verdict verdict;
  const int new_degree = popcount(subset);
  for (int u = 0; u < k; ++u) {
    if (popcount(child.neighbors(u)) < new_degree) {
      verdict.above_minimum = true;
      break;
    }
  }
  const canon_result canon = canonical_form(child);
  const int deletion = canon.labeling[static_cast<std::size_t>(k)];
  verdict.accepted = canon.orbits[static_cast<std::size_t>(k)] ==
                     canon.orbits[static_cast<std::size_t>(deletion)];
  if (verdict.accepted) verdict.key = canon.canonical.key64();
  return verdict;
}

}  // namespace bnf::testing
