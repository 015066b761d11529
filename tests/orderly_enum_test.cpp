// Cross-validation of the orderly canonical-augmentation generator.
//
// The generator's exactly-once guarantee rests on a nontrivial argument
// (unique canonical construction paths + subset-orbit representatives), so
// these tests check it against an INDEPENDENT oracle: a deliberately naive
// level-up enumerator that extends every class by every attachment subset
// and dedups through a global canonical-key set — the scheme the orderly
// generator replaced. Byte-identical sorted key sets for n <= 8 means the
// two agree on every isomorphism class, not just on counts.
//
// The sharding contract (per-shard outputs disjoint, union = full level,
// independent of shard count) is what lets the engines stream shards with
// zero coordination; it is property-tested here directly.
//
// Key sets alone cannot see a change of construction path (it would only
// move keys between shards), so the per-candidate decisions are checked
// against testing::reference_augmentation, and the n = 9 census pins the
// generator's work counters.
#include "gen/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "testing.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace bnf {
namespace {

// The retired extend-then-dedup enumerator, kept minimal: no parallelism,
// no orbit pruning, no canonical-parent test — just brute force and a set.
std::vector<std::uint64_t> legacy_level_up_keys(int n, bool connected_only) {
  std::vector<graph> level{graph(0)};
  for (int k = 0; k < n; ++k) {
    std::set<std::uint64_t> next_keys;
    std::vector<graph> next;
    for (const graph& parent : level) {
      const std::uint32_t subsets = std::uint32_t{1}
                                    << static_cast<std::uint32_t>(k);
      for (std::uint32_t subset = 0; subset < subsets; ++subset) {
        graph child = parent.with_vertex();
        for (int v = 0; v < k; ++v) {
          if ((subset >> static_cast<std::uint32_t>(v)) & 1U) {
            child.add_edge(v, k);
          }
        }
        const canon_result canon = canonical_form(child);
        if (next_keys.insert(canon.canonical.key64()).second) {
          next.push_back(child);
        }
      }
    }
    level = std::move(next);
  }
  std::vector<std::uint64_t> keys;
  for (const graph& g : level) {
    if (connected_only && !is_connected(g)) continue;
    keys.push_back(canonical_key64(g));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class OrderlyVsLegacySuite : public ::testing::TestWithParam<int> {};

TEST_P(OrderlyVsLegacySuite, AllClassesMatchLegacyByteForByte) {
  const int n = GetParam();
  EXPECT_EQ(all_graph_keys(n, {.connected_only = false}),
            legacy_level_up_keys(n, /*connected_only=*/false));
}

TEST_P(OrderlyVsLegacySuite, ConnectedClassesMatchLegacyByteForByte) {
  const int n = GetParam();
  EXPECT_EQ(all_graph_keys(n, {.connected_only = true}),
            legacy_level_up_keys(n, /*connected_only=*/true));
}

// n = 8 (12346 classes) exercises real orbit structure; the legacy oracle
// dominates the runtime (it builds 2^7 children per 7-vertex class).
INSTANTIATE_TEST_SUITE_P(SmallOrders, OrderlyVsLegacySuite,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

TEST(OrderlyEnumTest, ShardsAreDisjointAndCoverTheLevel) {
  const enumeration_plan plan(8, 16, {.connected_only = false});
  ASSERT_EQ(plan.order(), 8);
  ASSERT_EQ(plan.shard_count(), 16U);

  std::vector<std::uint64_t> merged;
  std::uint64_t reported = 0;
  for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
    std::vector<std::uint64_t> local;
    const std::uint64_t count =
        plan.for_each_key(shard, [&](std::uint64_t key) {
          local.push_back(key);
        });
    EXPECT_EQ(count, local.size());
    reported += count;
    // Within a shard, keys are already distinct (exactly-once per class).
    std::vector<std::uint64_t> sorted = local;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    merged.insert(merged.end(), local.begin(), local.end());
  }

  // Disjoint across shards AND union = full level: the merged multiset,
  // sorted, must equal the materialized level exactly.
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(reported, merged.size());
  EXPECT_EQ(merged, all_graph_keys(8, {.connected_only = false}));
}

TEST(OrderlyEnumTest, ShardCountDoesNotChangeTheUnion) {
  const auto full = all_graph_keys(7, {.connected_only = true});
  for (const std::size_t shard_count : {1U, 3U, 128U}) {
    std::vector<std::uint64_t> merged;
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      for_each_graph_key_shard(
          7, shard, shard_count,
          [&](std::uint64_t key) { merged.push_back(key); },
          {.connected_only = true});
    }
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, full) << shard_count;
  }
}

TEST(OrderlyEnumTest, ForestCountsMatchOeisA005195) {
  for (int n = 0; n <= 9; ++n) {
    EXPECT_EQ(count_graphs(n, {.connected_only = false, .forests_only = true}),
              known_forest_counts[static_cast<std::size_t>(n)])
        << n;
  }
  // Spot-check class membership, not just counts: a graph is a forest iff
  // every component is a tree, i.e. edges + components == vertices.
  for_each_graph(
      8,
      [&](const graph& g) {
        ASSERT_EQ(static_cast<std::size_t>(g.size()) + components(g).size(),
                  static_cast<std::size_t>(g.order()))
            << to_string(g);
      },
      {.connected_only = false, .forests_only = true});
}

TEST(OrderlyEnumTest, ChunkStreamMatchesMaterializedKeys) {
  const auto keys = all_graph_keys(7, {.connected_only = false});
  std::vector<std::uint64_t> streamed;
  for_each_graph_key_chunk(7, {.connected_only = false}, 100,
                           [&](std::span<const std::uint64_t> chunk) {
                             EXPECT_LE(chunk.size(), 100U);
                             EXPECT_TRUE(std::is_sorted(chunk.begin(),
                                                        chunk.end()));
                             streamed.insert(streamed.end(), chunk.begin(),
                                             chunk.end());
                           });
  EXPECT_EQ(streamed, keys);
}

// Every attachment subset of every parent class on at most 7 vertices,
// in its canonical labels and in one seeded relabeling (the generator's
// parents carry construction-path labels): the O(1) pre-filter, the
// acceptance verdict, the key and the generators handed to the children
// must all equal the reference built from canonical_form.
void expect_decisions_match_reference(const enumeration_options& options) {
  rng random = testing::seeded_rng();
  automorphism_generators workspace;
  std::uint64_t candidates = 0;
  std::uint64_t prefiltered = 0;
  std::uint64_t accepted = 0;
  for (int k = 0; k <= 7; ++k) {
    for (const graph& canonical_parent : all_graphs(k, options)) {
      std::vector<int> perm(static_cast<std::size_t>(k));
      std::iota(perm.begin(), perm.end(), 0);
      random.shuffle(std::span<int>(perm));
      for (const graph& parent :
           {canonical_parent, canonical_parent.permuted(perm)}) {
        const attachment_degree_filter degree_filter(parent);
        const std::vector<std::uint64_t> comps = components(parent);
        for (std::uint64_t subset = 0; subset < (std::uint64_t{1} << k);
             ++subset) {
          if (options.forests_only &&
              std::any_of(comps.begin(), comps.end(), [&](std::uint64_t c) {
                return popcount(subset & c) > 1;
              })) {
            continue;
          }
          const testing::augmentation_verdict reference =
              testing::reference_augmentation(parent, subset);
          graph child = parent.with_vertex();
          child.set_neighbors(k, subset);
          const std::optional<std::uint64_t> key =
              canonical_deletion_key(child, workspace);

          ASSERT_EQ(degree_filter.above_minimum(subset),
                    reference.above_minimum)
              << to_string(parent) << " subset " << subset;
          ASSERT_EQ(key.has_value(), reference.accepted)
              << to_string(parent) << " subset " << subset;
          // The pre-filter is sound: it never rejects a child that the
          // full acceptance test would take.
          ASSERT_FALSE(reference.above_minimum && reference.accepted);
          if (key) {
            ASSERT_EQ(*key, reference.key);
            ASSERT_EQ(workspace, canonical_form(child).generators);
          }
          ++candidates;
          if (reference.above_minimum) ++prefiltered;
          if (reference.accepted) ++accepted;
        }
      }
    }
  }
  // Both verdicts of both tests are exercised, not just one of each.
  EXPECT_GT(prefiltered, 0U);
  EXPECT_GT(accepted, 0U);
  EXPECT_GT(candidates - prefiltered - accepted, 0U);
}

TEST(OrderlyDecisionTest, AllGraphsMatchReference) {
  expect_decisions_match_reference({.connected_only = false});
}

TEST(OrderlyDecisionTest, ForestsMatchReference) {
  expect_decisions_match_reference(
      {.connected_only = false, .forests_only = true});
}

// FNV-1a over the little-endian bytes of the keys, in order.
std::uint64_t key_digest(const std::vector<std::uint64_t>& keys) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint64_t key : keys) {
    for (int b = 0; b < 8; ++b) {
      h ^= (key >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(OrderlyEnumTest, Order9ConstructionPathsArePinned) {
  // Pinned from the generator before the O(1) pre-filter and last-cell
  // rejection: a change of construction path moves these counters even
  // when the key set stays the same.
  const char* const names[] = {obs::names::orderly_candidates,
                               obs::names::orderly_prefilter_rejects,
                               obs::names::orderly_orbit_rejects,
                               obs::names::orderly_accepts};
  const std::uint64_t expected[] = {2293635, 1838077, 167292, 288266};
  std::uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = obs::get_counter(names[i]).value();
  EXPECT_EQ(count_graphs(9, {.threads = 1}), 261080U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(obs::get_counter(names[i]).value() - before[i], expected[i])
        << names[i];
  }
  const std::vector<std::uint64_t> keys =
      all_graph_keys(9, {.connected_only = true});
  EXPECT_EQ(key_digest(keys), 0x099a78bb96455ba3ULL);
}

}  // namespace
}  // namespace bnf
