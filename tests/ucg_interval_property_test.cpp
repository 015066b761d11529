// Cross-validation of the exact alpha-interval certificate
// (ucg_nash_alpha_region / ucg_nash_interval) against the per-alpha
// orientation search (is_ucg_nash) over every connected non-isomorphic
// graph on n <= 6 vertices, probing inside, outside, and exactly on the
// interval endpoints. Both of those share the pruned content-interval
// kernel, so the region is also checked against an unpruned reference
// built here from the definition alone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "equilibria/ucg_nash.hpp"
#include "gen/enumerate.hpp"
#include "gen/named.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

// The UCG Nash region straight from the definition: every orientation of
// every edge, and for each player every subset S of the others as a
// deviation (its paid links replaced by S, the links the other side pays
// for kept), evaluated by one BFS on a copy of the graph. No floor prune,
// no kept-row reduction, no orientation prune. Content intervals are
// memoised per (player, paid set).
class reference_region {
 public:
  explicit reference_region(const graph& g)
      : g_(g),
        memo_(static_cast<std::size_t>(g.order()) << g.order()) {}

  alpha_interval_set region() {
    const int n = g_.order();
    const std::vector<std::pair<int, int>> edges = g_.edges();
    alpha_interval_set result;
    for (std::uint64_t orientation = 0;
         orientation < (std::uint64_t{1} << edges.size()); ++orientation) {
      std::vector<std::uint64_t> paid(static_cast<std::size_t>(n), 0);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const auto [u, v] = edges[e];
        if (has_bit(orientation, static_cast<int>(e))) {
          paid[static_cast<std::size_t>(v)] |= bit(u);
        } else {
          paid[static_cast<std::size_t>(u)] |= bit(v);
        }
      }
      alpha_interval window;
      for (int i = 0; i < n && !window.empty(); ++i) {
        window = window.intersect(
            content(i, paid[static_cast<std::size_t>(i)]));
      }
      result.add(window);
    }
    return result;
  }

 private:
  const alpha_interval& content(int i, std::uint64_t paid) {
    auto& slot = memo_[(static_cast<std::size_t>(i) << g_.order()) | paid];
    if (!slot) slot = compute_content(i, paid);
    return *slot;
  }

  // alpha * |S| + dist(S) >= alpha * |paid| + dist(G) for every S: each
  // deviation contributes one weak half-line constraint on alpha.
  alpha_interval compute_content(int i, std::uint64_t paid) const {
    const long long dist_cur = distance_sum(g_, i).sum;
    const long long k_cur = popcount(paid);
    const std::uint64_t others = g_.vertex_mask() & ~bit(i);
    alpha_interval window;
    std::uint64_t subset = others;
    while (true) {
      graph deviated = g_;
      for_each_bit(paid, [&](int v) { deviated.remove_edge(i, v); });
      for_each_bit(subset, [&](int v) {
        if (!deviated.has_edge(i, v)) deviated.add_edge(i, v);
      });
      const distance_summary after = distance_sum(deviated, i);
      if (after.unreached == 0) {
        const long long gain = dist_cur - after.sum;  // distance saved
        const long long extra = popcount(subset) - k_cur;  // links added
        alpha_interval constraint;
        if (extra > 0 && gain > 0) {
          constraint.lo = rational::make(gain, extra);
          constraint.lo_closed = true;
        } else if (extra < 0) {
          constraint.hi = rational::make(-gain, -extra);
        } else if (extra == 0 && gain > 0) {
          constraint = alpha_interval::empty_interval();
        }
        window = window.intersect(constraint);
      }
      if (subset == 0) break;
      subset = (subset - 1) & others;
    }
    return window;
  }

  const graph& g_;
  std::vector<std::optional<alpha_interval>> memo_;
};

// Probes that stay clear of the per-alpha checker's 1e-9 tie tolerance:
// fixed off-threshold values, interval midpoints, and +/-1e-5 nudges
// around every finite endpoint.
std::vector<double> probes_for(const alpha_interval_set& region) {
  std::vector<double> probes = {0.4, 0.77, 1.3, 2.6, 3.45, 5.9, 11.17};
  for (const alpha_interval& part : region.parts()) {
    if (part.lo.num > 0) {
      probes.push_back(part.lo.to_double() - 1e-5);
      probes.push_back(part.lo.to_double() + 1e-5);
    }
    if (!part.hi.is_infinite()) {
      probes.push_back(part.hi.to_double() - 1e-5);
      probes.push_back(part.hi.to_double() + 1e-5);
      if (part.lo < part.hi) {
        probes.push_back(midpoint(part.lo, part.hi).to_double());
      }
    } else {
      probes.push_back(part.lo.to_double() + 7.3);
    }
  }
  return probes;
}

TEST(UcgIntervalPropertyTest, RegionMatchesBruteForceOnAllSmallGraphs) {
  for (int n = 2; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const auto region = ucg_nash_alpha_region(g).region;
          for (const double alpha : probes_for(region)) {
            if (!(alpha > 0)) continue;
            ASSERT_EQ(region.contains(alpha), is_ucg_nash(g, alpha))
                << to_string(g) << " alpha=" << alpha;
          }
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, EndpointsAreTiesForTheBruteForce) {
  // Exactly ON a finite endpoint the deviation that defines it ties, and
  // ties never destabilize: the region is closed there and the per-alpha
  // checker (whose 1e-9 slack absorbs the double rounding of num/den)
  // agrees.
  for (int n = 3; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const auto region = ucg_nash_alpha_region(g).region;
          for (const alpha_interval& part : region.parts()) {
            if (part.lo.num > 0) {
              ASSERT_TRUE(part.lo_closed) << to_string(g);
              ASSERT_TRUE(region.contains(part.lo)) << to_string(g);
              ASSERT_TRUE(is_ucg_nash(g, part.lo.to_double()))
                  << to_string(g) << " at lo=" << to_string(part.lo);
            }
            if (!part.hi.is_infinite()) {
              ASSERT_TRUE(part.hi_closed) << to_string(g);
              ASSERT_TRUE(region.contains(part.hi)) << to_string(g);
              ASSERT_TRUE(is_ucg_nash(g, part.hi.to_double()))
                  << to_string(g) << " at hi=" << to_string(part.hi);
            }
          }
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, SmallRegionsAreSingleIntervals) {
  // Empirical fact backing ucg_nash_interval's single-component contract:
  // no connected graph on n <= 6 has a disconnected Nash region.
  for (int n = 2; n <= 6; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          const auto region = ucg_nash_alpha_region(g).region;
          ASSERT_LE(region.parts().size(), 1U)
              << to_string(g) << " region " << to_string(region);
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, RegionMatchesUnprunedReference) {
  // n <= 6 exhaustively; n = 7 up to 14 edges keeps the reference's
  // 2^m orientations tier-1 sized.
  for (int n = 2; n <= 7; ++n) {
    for_each_graph(
        n,
        [&](const graph& g) {
          if (n == 7 && g.size() > 14) return;
          ASSERT_EQ(ucg_nash_alpha_region(g).region,
                    reference_region(g).region())
              << to_string(g);
        },
        {.connected_only = true});
  }
}

TEST(UcgIntervalPropertyTest, RandomProbesAgreeWithBruteForce) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(random.below(4));
    const graph g = testing::random_connected(random, n, n);
    const auto region = ucg_nash_alpha_region(g).region;
    const double alpha = 0.2 + 12.0 * random.uniform_real();
    ASSERT_EQ(region.contains(alpha), is_ucg_nash(g, alpha))
        << to_string(g) << " alpha=" << alpha;
  }
}

TEST(UcgIntervalPropertyTest, KnownWindowsOfNamedGraphs) {
  // The complete graph is Nash exactly while links cost at most 1 (a
  // dropped link saves alpha and adds 1 hop); the star is Nash from 1 on
  // (a leaf-to-leaf link saves exactly 1 hop, severances cut bridges).
  for (const int n : {3, 4, 5, 6, 7, 8}) {
    const alpha_interval clique = ucg_nash_interval(complete(n));
    EXPECT_EQ(to_string(clique), "(0, 1]") << "K_" << n;
    const alpha_interval hub = ucg_nash_interval(star(n));
    EXPECT_EQ(to_string(hub), "[1, inf)") << "star_" << n;
  }
}

TEST(UcgIntervalPropertyTest, IntervalIsIsomorphismInvariant) {
  rng random = testing::seeded_rng();
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(random.below(3));
    const graph g = testing::random_connected(random, n, n);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    random.shuffle(std::span<int>(perm));
    const graph h = g.permuted(perm);
    ASSERT_EQ(ucg_nash_alpha_region(g).region, ucg_nash_alpha_region(h).region)
        << to_string(g);
  }
}

// The per-alpha search at each positive finite endpoint of every region
// component and one ulp either side; membership must agree exactly (the
// search has no tie slack). Returns the number of endpoints probed.
int expect_endpoints_match_search(const graph& g) {
  const alpha_interval_set region = ucg_nash_alpha_region(g).region;
  int endpoints = 0;
  for (const alpha_interval& part : region.parts()) {
    for (const rational& endpoint : {part.lo, part.hi}) {
      if (endpoint.is_infinite() || endpoint.num <= 0) continue;
      ++endpoints;
      const double at = endpoint.to_double();
      for (const double alpha :
           {std::nextafter(at, 0.0), at, std::nextafter(at, at + 1.0)}) {
        EXPECT_EQ(region.contains(alpha), is_ucg_nash(g, alpha))
            << to_string(g) << " region " << to_string(region)
            << " alpha=" << alpha;
      }
    }
  }
  return endpoints;
}

TEST(UcgIntervalPropertyTest, RegionEndpointsMatchSearchOnSampledShards) {
  // The exhaustive checks above stop at n = 6 (n = 7 for the unpruned
  // reference). Beyond them, seeded shards of the census's 128-way plan
  // (drawn with replacement; at n = 7 most shards are empty): every class
  // of the drawn shards at n = 7 and 8, one in two at n = 9, one in 64 of
  // one shard at n = 10.
  struct sample {
    int n;
    int shards;
    std::uint64_t one_in;
  };
  rng random = testing::seeded_rng();
  for (const sample& s : {sample{7, 128, 1}, sample{8, 16, 1}, sample{9, 2, 2},
                          sample{10, 1, 64}}) {
    SCOPED_TRACE("n=" + std::to_string(s.n));
    const enumeration_plan plan(s.n, 128);
    int classes = 0;
    int endpoints = 0;
    for (int pick = 0; pick < s.shards; ++pick) {
      plan.for_each_key(random.below(128), [&](std::uint64_t key) {
        if (random.below(s.one_in) != 0) return;
        endpoints +=
            expect_endpoints_match_search(graph::from_key64(s.n, key));
        ++classes;
      });
    }
    EXPECT_GT(classes, 800);
    EXPECT_GT(endpoints, 500);
  }
}

}  // namespace
}  // namespace bnf
