#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "dfs/ec/hitchhiker.h"
#include "dfs/ec/lrc.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/ec/registry.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"

namespace dfs::storage {
namespace {

// --- layout -------------------------------------------------------------------

TEST(Layout, NativeBlockIndexing) {
  const StorageLayout l = round_robin_layout(20, 4, 2, 8);
  EXPECT_EQ(l.num_stripes(), 10);
  EXPECT_EQ(l.num_native_blocks(), 20);
  EXPECT_EQ(l.native_block(0), (BlockId{0, 0}));
  EXPECT_EQ(l.native_block(1), (BlockId{0, 1}));
  EXPECT_EQ(l.native_block(2), (BlockId{1, 0}));
  EXPECT_EQ(l.native_block(19), (BlockId{9, 1}));
}

TEST(Layout, RoundRobinPlacesEvenly) {
  // §VI testbed: 240 native blocks, (12,10), 12 nodes -> 20 native/slave.
  const StorageLayout l = round_robin_layout(240, 12, 10, 12);
  const auto load = l.node_load(12);
  // 24 stripes * 12 blocks / 12 nodes = 24 blocks per node in total.
  for (int n = 0; n < 12; ++n) EXPECT_EQ(load[static_cast<std::size_t>(n)], 24);
  int native_on_node0 = 0;
  for (const BlockId b : l.blocks_on_node(0)) {
    if (b.index < 10) ++native_on_node0;
  }
  EXPECT_EQ(native_on_node0, 20);
}

TEST(Layout, RoundRobinDistinctNodesPerStripe) {
  const StorageLayout l = round_robin_layout(100, 10, 5, 15);
  for (int s = 0; s < l.num_stripes(); ++s) {
    std::set<NodeId> nodes;
    for (int b = 0; b < l.n(); ++b) nodes.insert(l.node_of(BlockId{s, b}));
    EXPECT_EQ(nodes.size(), 10u);
  }
}

TEST(Layout, RejectsIndivisibleBlockCount) {
  EXPECT_THROW(round_robin_layout(21, 4, 2, 8), std::invalid_argument);
}

TEST(Layout, RandomRackConstrainedSatisfiesRule) {
  const net::Topology topo(4, 10);
  util::Rng rng(42);
  const StorageLayout l =
      random_rack_constrained_layout(1440, 20, 15, topo, rng);
  EXPECT_TRUE(l.satisfies_placement_rule(topo, 5));
}

TEST(Layout, RandomRackConstrainedBalanced) {
  const net::Topology topo(4, 10);
  util::Rng rng(43);
  const StorageLayout l =
      random_rack_constrained_layout(720, 16, 12, topo, rng);
  const auto load = l.node_load(40);
  // 60 stripes * 16 blocks = 960 blocks over 40 nodes: 24 each, exactly,
  // because the greedy chooses least-loaded first.
  const auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_GE(*mn, 23);
  EXPECT_LE(*mx, 25);
}

TEST(Layout, RandomRackConstrainedInfeasibleThrows) {
  // A single-rack cluster can hold at most n-k=2 blocks of any stripe.
  const net::Topology topo(1, 10);
  util::Rng rng(1);
  EXPECT_THROW(random_rack_constrained_layout(4, 4, 2, topo, rng),
               std::invalid_argument);
}

TEST(Layout, MotivatingExampleTopologyFeasible) {
  // §III example: 5 nodes in racks of 3+2, (4,2): <= 2 blocks per rack.
  const net::Topology topo(std::vector<int>{3, 2});
  util::Rng rng(7);
  const StorageLayout l = random_rack_constrained_layout(12, 4, 2, topo, rng);
  EXPECT_TRUE(l.satisfies_placement_rule(topo, 2));
}

// The per-block scan random_rack_constrained_layout used before its bitset
// index, kept as the oracle the index must match draw for draw. It also
// counts its dead ends: every retry, including those that lead to the
// ignore-load (attempts >= 8) and rack-quota fallback (>= 32) branches.
StorageLayout reference_scan_layout(int num_native_blocks, int n, int k,
                                    const net::Topology& topo, util::Rng& rng,
                                    long& dead_ends) {
  if (num_native_blocks % k != 0) {
    throw std::invalid_argument("native block count must be a multiple of k");
  }
  const int max_per_rack = n - k;
  int feasible = 0;
  for (RackId r = 0; r < topo.num_racks(); ++r) {
    feasible += std::min(static_cast<int>(topo.nodes_in_rack(r).size()),
                         max_per_rack);
  }
  if (feasible < n) {
    throw std::invalid_argument(
        "topology cannot satisfy the rack placement rule for this (n,k)");
  }

  const int stripes = num_native_blocks / k;
  const int num_nodes = topo.num_nodes();
  std::vector<int> load(static_cast<std::size_t>(num_nodes), 0);
  std::vector<std::vector<NodeId>> placement(
      static_cast<std::size_t>(stripes));

  for (int s = 0; s < stripes; ++s) {
    auto& row = placement[static_cast<std::size_t>(s)];
    row.reserve(static_cast<std::size_t>(n));
    std::vector<bool> used(static_cast<std::size_t>(num_nodes), false);
    std::vector<int> rack_count(static_cast<std::size_t>(topo.num_racks()), 0);
    int attempts = 0;
    for (int b = 0; b < n; ++b) {
      const bool ignore_load = attempts >= 8;
      std::vector<NodeId> candidates;
      int best_load = -1;
      for (NodeId node = 0; node < num_nodes; ++node) {
        if (used[static_cast<std::size_t>(node)]) continue;
        if (rack_count[static_cast<std::size_t>(topo.rack_of(node))] >=
            max_per_rack) {
          continue;
        }
        const int l = ignore_load ? 0 : load[static_cast<std::size_t>(node)];
        if (best_load < 0 || l < best_load) {
          best_load = l;
          candidates.assign(1, node);
        } else if (l == best_load) {
          candidates.push_back(node);
        }
      }
      if (candidates.empty()) {
        for (NodeId node : row) --load[static_cast<std::size_t>(node)];
        row.clear();
        std::fill(used.begin(), used.end(), false);
        std::fill(rack_count.begin(), rack_count.end(), 0);
        ++attempts;
        ++dead_ends;
        if (attempts >= 32) {
          for (RackId r = 0; r < topo.num_racks() &&
                             static_cast<int>(row.size()) < n;
               ++r) {
            std::vector<NodeId> members = topo.nodes_in_rack(r);
            std::sort(members.begin(), members.end(),
                      [&](NodeId a, NodeId c) {
                        return load[static_cast<std::size_t>(a)] <
                               load[static_cast<std::size_t>(c)];
                      });
            const int take =
                std::min({max_per_rack, static_cast<int>(members.size()),
                          n - static_cast<int>(row.size())});
            for (int i = 0; i < take; ++i) {
              row.push_back(members[static_cast<std::size_t>(i)]);
              ++load[static_cast<std::size_t>(
                  members[static_cast<std::size_t>(i)])];
            }
          }
          break;
        }
        b = -1;
        continue;
      }
      const NodeId chosen = candidates[rng.index(candidates.size())];
      row.push_back(chosen);
      used[static_cast<std::size_t>(chosen)] = true;
      ++rack_count[static_cast<std::size_t>(topo.rack_of(chosen))];
      ++load[static_cast<std::size_t>(chosen)];
    }
  }
  return StorageLayout(n, k, std::move(placement));
}

TEST(Layout, RandomRackConstrainedMatchesReferenceScan) {
  // Random topologies, from tiny uneven racks (where the rack quota binds
  // and the per-rack sums barely reach n) to 300-node clusters spanning
  // several bitset words, under several (n, k) pairs.
  const std::vector<std::pair<int, int>> codes = {
      {3, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 4}, {9, 6}, {12, 10}, {16, 12}};
  util::Rng meta(2024);
  long dead_ends = 0;
  int compared = 0;
  int tight = 0;  // cases whose racks hold exactly n blocks per stripe
  for (int trial = 0; trial < 600; ++trial) {
    const bool big = trial % 5 == 0;
    const int racks = big ? meta.uniform_int(2, 30) : meta.uniform_int(1, 8);
    std::vector<int> sizes;
    for (int r = 0; r < racks; ++r) {
      sizes.push_back(big ? meta.uniform_int(1, 20) : meta.uniform_int(1, 4));
    }
    const net::Topology topo(sizes);
    const auto [n, k] = codes[meta.index(codes.size())];
    const int blocks = k * meta.uniform_int(1, 40);
    const std::uint64_t seed = static_cast<std::uint64_t>(trial) + 1;
    util::Rng ref_rng(seed);
    util::Rng rng(seed);
    std::optional<StorageLayout> expected;
    try {
      expected = reference_scan_layout(blocks, n, k, topo, ref_rng, dead_ends);
    } catch (const std::invalid_argument&) {
      EXPECT_THROW(random_rack_constrained_layout(blocks, n, k, topo, rng),
                   std::invalid_argument);
      continue;
    }
    const StorageLayout got =
        random_rack_constrained_layout(blocks, n, k, topo, rng);
    ASSERT_EQ(got.num_stripes(), expected->num_stripes());
    for (int s = 0; s < got.num_stripes(); ++s) {
      for (int b = 0; b < n; ++b) {
        ASSERT_EQ(got.node_of(BlockId{s, b}), expected->node_of(BlockId{s, b}))
            << "trial " << trial << " stripe " << s << " block " << b;
      }
    }
    // Same number of draws: the next one agrees too.
    ASSERT_EQ(rng.uniform_int(0, 1 << 30), ref_rng.uniform_int(0, 1 << 30))
        << "trial " << trial;
    ++compared;
    int quota_sum = 0;
    for (const int size : sizes) quota_sum += std::min(size, n - k);
    if (quota_sum == n) ++tight;
  }
  EXPECT_GT(compared, 300);
  EXPECT_GT(tight, 20);
  // The rack quotas form a partition matroid: once the sum of
  // min(rack size, n - k) reaches n, every legal partial stripe extends, so
  // the scan never dead-ends — not even on the tight cases above.
  EXPECT_EQ(dead_ends, 0);
}

TEST(Layout, ZipfSkewedSatisfiesRule) {
  const net::Topology topo(4, 10);
  util::Rng rng(42);
  const StorageLayout l =
      zipf_rack_skewed_layout(1440, 20, 15, topo, rng, 1.2);
  EXPECT_TRUE(l.satisfies_placement_rule(topo, 5));
  EXPECT_EQ(l.num_native_blocks(), 1440);
}

TEST(Layout, ZipfSkewConcentratesLoadOnRackZero) {
  // 8 racks with a per-stripe quota of n-k=2: each stripe needs only 4 of
  // the 8 racks, so the Zipf draw has real freedom to favor low rack ids.
  // (A saturated topology — quota * racks == n — would force perfect
  // balance whatever the exponent.)
  const net::Topology topo(8, 5);
  util::Rng rng(7);
  const StorageLayout l = zipf_rack_skewed_layout(480, 8, 6, topo, rng, 1.5);
  const auto load = l.node_load(40);
  std::vector<long> rack_load(8, 0);
  for (int n = 0; n < 40; ++n) {
    rack_load[static_cast<std::size_t>(n / 5)] +=
        load[static_cast<std::size_t>(n)];
  }
  EXPECT_GT(rack_load[0], rack_load[7]);
  EXPECT_EQ(rack_load[0], *std::max_element(rack_load.begin(),
                                            rack_load.end()));
}

TEST(Layout, ZipfSkewZeroStillLegalJustUnskewed) {
  // Exponent 0 degenerates to a uniform rack draw — still a valid layout,
  // without the rack-0 pile-up.
  const net::Topology topo(4, 10);
  util::Rng rng(11);
  const StorageLayout l = zipf_rack_skewed_layout(480, 16, 12, topo, rng, 0.0);
  EXPECT_TRUE(l.satisfies_placement_rule(topo, 4));
}

TEST(Layout, ZipfSkewedRejectsBadArguments) {
  const net::Topology topo(4, 10);
  util::Rng rng(1);
  EXPECT_THROW(zipf_rack_skewed_layout(100, 16, 12, topo, rng, -0.5),
               std::invalid_argument);
  EXPECT_THROW(zipf_rack_skewed_layout(121, 16, 12, topo, rng, 1.0),
               std::invalid_argument);  // not a whole number of stripes
  const net::Topology tiny(1, 10);
  EXPECT_THROW(zipf_rack_skewed_layout(4, 4, 2, tiny, rng, 1.0),
               std::invalid_argument);  // one rack cannot hold a stripe
}

TEST(Layout, PlacementRuleDetectsViolations) {
  // Two blocks of a stripe on one node.
  StorageLayout bad(4, 2, {{0, 0, 1, 2}});
  const net::Topology topo(2, 2);
  EXPECT_FALSE(bad.satisfies_placement_rule(topo, 2));
  // Three blocks of a stripe in rack 0 (> n-k = 2).
  StorageLayout bad2(4, 2, {{0, 1, 2, 3}});
  const net::Topology topo2(std::vector<int>{3, 2});
  EXPECT_FALSE(bad2.satisfies_placement_rule(topo2, 2));
}

TEST(Layout, ReplicatedPlacementRules) {
  const net::Topology topo(3, 4);
  util::Rng rng(11);
  const StorageLayout l = replicated_layout(200, 3, topo, rng);
  EXPECT_EQ(l.k(), 1);
  EXPECT_EQ(l.n(), 3);
  EXPECT_EQ(l.num_stripes(), 200);
  for (int b = 0; b < 200; ++b) {
    const NodeId first = l.node_of(BlockId{b, 0});
    const NodeId second = l.node_of(BlockId{b, 1});
    const NodeId third = l.node_of(BlockId{b, 2});
    // Copies 2 and 3 share one rack, different from copy 1's rack.
    EXPECT_NE(topo.rack_of(first), topo.rack_of(second));
    EXPECT_EQ(topo.rack_of(second), topo.rack_of(third));
    EXPECT_NE(second, third);
  }
  // Survives any double-node failure and any single-rack failure.
  EXPECT_TRUE(l.satisfies_placement_rule(topo, 2));
}

TEST(Layout, ReplicatedRejectsBadTopologies) {
  util::Rng rng(1);
  EXPECT_THROW(replicated_layout(10, 3, net::Topology(1, 10), rng),
               std::invalid_argument);
  EXPECT_THROW(replicated_layout(10, 4, net::Topology(4, 2), rng),
               std::invalid_argument);
  EXPECT_THROW(replicated_layout(10, 1, net::Topology(2, 4), rng),
               std::invalid_argument);
}

// --- failure ------------------------------------------------------------------

TEST(Failure, SingleNode) {
  const net::Topology topo(4, 10);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const FailureScenario f = single_node_failure(topo, rng);
    EXPECT_EQ(f.failed_nodes().size(), 1u);
    EXPECT_TRUE(f.any());
    EXPECT_TRUE(f.is_failed(f.failed_nodes()[0]));
  }
}

TEST(Failure, DoubleNodeDistinct) {
  const net::Topology topo(4, 10);
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const FailureScenario f = double_node_failure(topo, rng);
    ASSERT_EQ(f.failed_nodes().size(), 2u);
    EXPECT_NE(f.failed_nodes()[0], f.failed_nodes()[1]);
  }
}

TEST(Failure, RackFailureKillsWholeRack) {
  const net::Topology topo(4, 10);
  util::Rng rng(3);
  const FailureScenario f = rack_failure(topo, rng);
  ASSERT_EQ(f.failed_nodes().size(), 10u);
  const net::RackId r = topo.rack_of(f.failed_nodes()[0]);
  for (const NodeId n : f.failed_nodes()) EXPECT_EQ(topo.rack_of(n), r);
}

TEST(Failure, NoFailureIsEmpty) {
  const FailureScenario f = no_failure();
  EXPECT_FALSE(f.any());
  EXPECT_FALSE(f.is_failed(0));
}

TEST(Failure, DeduplicatesNodes) {
  const FailureScenario f(std::vector<NodeId>{3, 1, 3});
  EXPECT_EQ(f.failed_nodes().size(), 2u);
  EXPECT_TRUE(f.is_failed(1));
  EXPECT_TRUE(f.is_failed(3));
  EXPECT_FALSE(f.is_failed(2));
}

TEST(Failure, ExclusionRespected) {
  const net::Topology topo(2, 3);
  util::Rng rng(4);
  const std::vector<NodeId> exclude = {0, 1, 2, 3, 4};
  for (int i = 0; i < 20; ++i) {
    const FailureScenario f =
        single_node_failure_excluding(topo, rng, exclude);
    EXPECT_EQ(f.failed_nodes()[0], 5);
  }
}

// --- degraded read planning ------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : topo_(4, 10),
        rng_(99),
        layout_(random_rack_constrained_layout(720, 16, 12, topo_, rng_)),
        code_(16, 12) {}

  net::Topology topo_;
  util::Rng rng_;
  StorageLayout layout_;
  ec::ReedSolomonCode code_;
};

TEST_F(PlannerTest, PlansKSurvivingSources) {
  const DegradedReadPlanner planner(layout_, topo_, code_,
                                    SourceSelection::kRandom);
  const FailureScenario failure({0});
  for (const BlockId b : layout_.blocks_on_node(0)) {
    if (b.index >= layout_.k()) continue;
    const auto plan = planner.plan(b, 5, failure, rng_);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->size(), 12u);
    for (const auto& src : *plan) {
      EXPECT_EQ(src.block.stripe, b.stripe);
      EXPECT_NE(src.block.index, b.index);
      EXPECT_NE(src.node, 0);  // never reads from the failed node
      EXPECT_EQ(src.node, layout_.node_of(src.block));
    }
  }
}

TEST_F(PlannerTest, RandomSelectionVariesSources) {
  const DegradedReadPlanner planner(layout_, topo_, code_,
                                    SourceSelection::kRandom);
  const FailureScenario failure({0});
  BlockId lost{-1, -1};
  for (const BlockId b : layout_.blocks_on_node(0)) {
    if (b.index < layout_.k()) {
      lost = b;
      break;
    }
  }
  ASSERT_GE(lost.stripe, 0);
  std::set<std::vector<int>> distinct;
  for (int i = 0; i < 20; ++i) {
    const auto plan = planner.plan(lost, 5, failure, rng_);
    ASSERT_TRUE(plan.has_value());
    std::vector<int> ids;
    for (const auto& s : *plan) ids.push_back(s.block.index);
    std::sort(ids.begin(), ids.end());
    distinct.insert(ids);
  }
  // Choosing 12 of 15 survivors at random should produce several distinct picks.
  EXPECT_GT(distinct.size(), 3u);
}

TEST_F(PlannerTest, PreferSameRackMaximizesLocalSources) {
  const DegradedReadPlanner random_planner(layout_, topo_, code_,
                                           SourceSelection::kRandom);
  const DegradedReadPlanner local_planner(layout_, topo_, code_,
                                          SourceSelection::kPreferSameRack);
  const FailureScenario failure({0});
  const NodeId reader = 5;
  int local_src_pref = 0;
  int local_src_rand = 0;
  for (const BlockId b : layout_.blocks_on_node(0)) {
    if (b.index >= layout_.k()) continue;
    const auto p1 = local_planner.plan(b, reader, failure, rng_);
    const auto p2 = random_planner.plan(b, reader, failure, rng_);
    ASSERT_TRUE(p1 && p2);
    for (const auto& s : *p1) {
      if (topo_.same_rack(s.node, reader)) ++local_src_pref;
    }
    for (const auto& s : *p2) {
      if (topo_.same_rack(s.node, reader)) ++local_src_rand;
    }
  }
  EXPECT_GT(local_src_pref, local_src_rand);
}

TEST_F(PlannerTest, UnrecoverableStripeReturnsNullopt) {
  // Kill the nodes holding the first n-k+1 blocks of stripe 0.
  std::vector<NodeId> failed;
  for (int b = 0; b <= layout_.n() - layout_.k(); ++b) {
    failed.push_back(layout_.node_of(BlockId{0, b}));
  }
  const FailureScenario failure(failed);
  const DegradedReadPlanner planner(layout_, topo_, code_,
                                    SourceSelection::kRandom);
  BlockId lost{-1, -1};
  for (int b = 0; b < layout_.k(); ++b) {
    if (failure.is_failed(layout_.node_of(BlockId{0, b}))) {
      lost = BlockId{0, b};
      break;
    }
  }
  ASSERT_GE(lost.stripe, 0);
  NodeId reader = 0;
  while (failure.is_failed(reader)) ++reader;
  EXPECT_FALSE(planner.plan(lost, reader, failure, rng_).has_value());
}

TEST_F(PlannerTest, ExpectedCrossRackBlocksMatchesFormula) {
  const DegradedReadPlanner planner(layout_, topo_, code_,
                                    SourceSelection::kRandom);
  // (R-1)/R * k = 3/4 * 12 = 9.
  EXPECT_DOUBLE_EQ(planner.expected_cross_rack_blocks(), 9.0);
}

TEST(PlannerLrc, LocalGroupReadCost) {
  // LRC(12, 3, 2): a single lost data block reads its 3 surviving group
  // members + the local parity = 4 blocks instead of 12 (footnote 1).
  const net::Topology topo(4, 10);
  util::Rng rng(17);
  const ec::LocalReconstructionCode code(12, 3, 2);
  const StorageLayout layout =
      random_rack_constrained_layout(120, code.n(), code.k(), topo, rng);
  const DegradedReadPlanner planner(layout, topo, code,
                                    SourceSelection::kRandom);
  const FailureScenario failure({layout.node_of(BlockId{0, 0})});
  NodeId reader = 0;
  while (failure.is_failed(reader)) ++reader;
  const auto plan = planner.plan(BlockId{0, 0}, reader, failure, rng);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->size(), 4u);
  EXPECT_DOUBLE_EQ(planner.expected_cross_rack_blocks(), 0.75 * 4.0);
}

TEST(PlannerCostModel, SubShardOptionWinsForHitchhiker) {
  // With neutral weights the planner must take Hitchhiker's cheaper
  // sub-shard option: (k + |G|) / 2 block equivalents, half-shards from
  // every source outside the lost shard's piggyback group.
  const net::Topology topo(4, 10);
  util::Rng rng(31);
  const ec::HitchhikerXorCode code(14, 10);
  const StorageLayout layout =
      random_rack_constrained_layout(100, code.n(), code.k(), topo, rng);
  const DegradedReadPlanner planner(layout, topo, code,
                                    SourceSelection::kRandom);
  const FailureScenario failure({layout.node_of(BlockId{0, 0})});
  NodeId reader = 0;
  while (failure.is_failed(reader)) ++reader;
  const auto plan = planner.plan(BlockId{0, 0}, reader, failure, rng);
  ASSERT_TRUE(plan.has_value());
  double fetched = 0.0;
  bool any_half = false;
  for (const auto& src : *plan) {
    fetched += src.fraction;
    any_half |= src.fraction == 0.5;
  }
  // Shard 0 of hh:14,10 sits in a piggyback group of 4: cost (10 + 4) / 2.
  EXPECT_DOUBLE_EQ(fetched, 7.0);
  EXPECT_TRUE(any_half);
  // Expectation over all 10 data shards: groups of 4, 3, 3 give
  // (4*7.0 + 6*6.5) / 10.
  EXPECT_DOUBLE_EQ(planner.expected_single_failure_blocks(), 6.7);
}

TEST(PlannerCostModel, AllowSubshardFalseForcesFullShards) {
  const net::Topology topo(4, 10);
  util::Rng rng(31);
  const ec::HitchhikerXorCode code(14, 10);
  const StorageLayout layout =
      random_rack_constrained_layout(100, code.n(), code.k(), topo, rng);
  RecoveryCostModel cm;
  cm.allow_subshard = false;
  const DegradedReadPlanner planner(layout, topo, code,
                                    SourceSelection::kRandom, cm);
  const FailureScenario failure({layout.node_of(BlockId{0, 0})});
  NodeId reader = 0;
  while (failure.is_failed(reader)) ++reader;
  const auto plan = planner.plan(BlockId{0, 0}, reader, failure, rng);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->size(), 10u);
  for (const auto& src : *plan) {
    EXPECT_DOUBLE_EQ(src.fraction, 1.0);
    EXPECT_EQ(src.substripes, code.full_substripe_mask());
  }
  EXPECT_DOUBLE_EQ(planner.expected_single_failure_blocks(), 10.0);
}

TEST(PlannerCostModel, CrossRackWeightSteersOptionChoice) {
  // Hitchhiker offers two competing options per lost data shard (sub-shard
  // vs any-k full shards), so rack weights can actually flip the choice.
  // Pricing cross-rack bytes at 8x must never fetch *more* weighted cost
  // than the neutral model would under the same 8x pricing.
  const net::Topology topo(4, 10);
  util::Rng rng(77);
  const ec::HitchhikerXorCode code(14, 10);
  const StorageLayout layout =
      random_rack_constrained_layout(100, code.n(), code.k(), topo, rng);
  RecoveryCostModel expensive;
  expensive.cross_rack_weight = 8.0;
  const DegradedReadPlanner neutral(layout, topo, code,
                                    SourceSelection::kPreferSameRack);
  const DegradedReadPlanner weighted(layout, topo, code,
                                     SourceSelection::kPreferSameRack,
                                     expensive);
  const FailureScenario failure({0});
  const NodeId reader = 5;
  const auto priced = [&](const std::vector<DegradedSource>& plan) {
    double cost = 0.0;
    for (const auto& src : plan) {
      cost += src.fraction *
              (topo.same_rack(src.node, reader) ? 1.0 : 8.0);
    }
    return cost;
  };
  int plans = 0;
  for (const BlockId b : layout.blocks_on_node(0)) {
    if (b.index >= layout.k()) continue;
    const auto p_neutral = neutral.plan(b, reader, failure, rng);
    const auto p_weighted = weighted.plan(b, reader, failure, rng);
    ASSERT_TRUE(p_neutral.has_value());
    ASSERT_TRUE(p_weighted.has_value());
    EXPECT_LE(priced(*p_weighted), priced(*p_neutral));
    ++plans;
  }
  EXPECT_GT(plans, 0);
}

// --- planner/code consistency property sweep ------------------------------------------

class PlannerCodeProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerCodeProperty, EveryPlanIsActuallyDecodable) {
  // Whatever the planner picks must suffice to rebuild the lost block —
  // across codes, random failures, and both source-selection policies.
  const auto code = ec::make_code_from_spec(GetParam());
  ASSERT_NE(code, nullptr);
  // Six racks of two: enough rack capacity even for xor:5 (n-k = 1 allows
  // at most one block of a stripe per rack).
  const net::Topology topo(6, 2);
  util::Rng rng(55);
  const StorageLayout layout = random_rack_constrained_layout(
      10 * code->k(), code->n(), code->k(), topo, rng);
  for (const auto selection :
       {SourceSelection::kRandom, SourceSelection::kPreferSameRack}) {
    const DegradedReadPlanner planner(layout, topo, *code, selection);
    for (int trial = 0; trial < 10; ++trial) {
      const FailureScenario failure = single_node_failure(topo, rng);
      const NodeId victim = failure.failed_nodes().front();
      NodeId reader = 0;
      while (failure.is_failed(reader)) ++reader;
      for (const BlockId lost : layout.blocks_on_node(victim)) {
        if (lost.index >= layout.k()) continue;  // map tasks read natives
        const auto plan = planner.plan(lost, reader, failure, rng);
        ASSERT_TRUE(plan.has_value());
        // The chosen generator rows must span the lost block's row: verify
        // by asking the code to decode zero-filled shards of that shape.
        std::vector<ec::Shard> bytes(plan->size(), ec::Shard(16, 0));
        std::vector<std::pair<int, const ec::Shard*>> present;
        for (std::size_t i = 0; i < plan->size(); ++i) {
          present.emplace_back((*plan)[i].block.index, &bytes[i]);
        }
        EXPECT_TRUE(code->reconstruct(present, {lost.index}).has_value())
            << GetParam() << " lost=" << lost.stripe << "," << lost.index;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, PlannerCodeProperty,
                         ::testing::Values("rs:6,4", "crs:6,4", "lrc:4,2,1",
                                           "rs16:8,6", "xor:5"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == ',') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dfs::storage
