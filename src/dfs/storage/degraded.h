#pragma once

#include <optional>
#include <vector>

#include "dfs/ec/erasure_code.h"
#include "dfs/net/topology.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/rng.h"

namespace dfs::storage {

/// One source fetch of a degraded read: which surviving block to download,
/// from which node, and how much of it. Sub-shard codes (Hitchhiker-XOR)
/// fetch only some substripes of most sources; plain codes always fetch
/// whole blocks (substripes == 0x1, fraction == 1.0).
struct DegradedSource {
  BlockId block;
  NodeId node = net::kInvalidNode;
  double fraction = 1.0;     ///< of the block's bytes actually downloaded
  unsigned substripes = 0x1; ///< ec::RecoverySource substripe bitmask
};

/// How a degraded read orders candidate source blocks before asking the
/// erasure code which subset to fetch.
enum class SourceSelection {
  kRandom,          ///< random k of the survivors (the paper's §IV-B model)
  kPreferSameRack,  ///< survivors in the reader's rack first (ablation)
};

/// Scores the candidate RecoveryOptions of a degraded read. An option's
/// cost is the sum over its sources of (fraction of the block fetched) x
/// (1 for a source in the reader's rack, `cross_rack_weight` for one behind
/// the core switch); the planner picks the cheapest option, breaking ties
/// toward the code's preferred (first) option. The neutral default weighs
/// every byte equally, which reproduces the code's own preference order
/// exactly — rs/crs/lrc plans are then byte-identical to the historical
/// fixed-count planner.
struct RecoveryCostModel {
  double cross_rack_weight = 1.0;  ///< source behind the core switch
  /// When false, options that fetch partial blocks are discarded and only
  /// whole-block options compete — the rs-vs-hh byte-identity harness and
  /// the ablation's "planner off" arm.
  bool allow_subshard = true;
};

/// One hedged degraded read, planned: the primary (cheapest) option's
/// sources, up to r extra hedge sources drawn first from the alternative
/// RecoveryOptions in cost order and then from the remaining whole
/// survivors, and the shard-level candidate options a fetch supervisor
/// needs to test quorum as fetches land.
struct HedgedPlan {
  BlockId lost{};
  std::vector<DegradedSource> primary;
  std::vector<DegradedSource> extras;
  /// The code's candidate options over the surviving shards (the quorum
  /// test re-checks coverage against these as fetches complete).
  ec::RecoveryPlan options;
};

/// True when the fetches completed so far suffice to reconstruct the lost
/// shard: either some candidate option is fully covered by the completed
/// substripe masks, or the fully-completed shards alone admit a recovery
/// plan (the "any k of the completed" test for MDS codes, whose plan
/// enumerates only one candidate subset up front). `completed` maps shard
/// index to the completed-substripe bitmask (0 = nothing fetched).
bool quorum_reached(const ec::ErasureCode& code,
                    const ec::RecoveryPlan& options, int lost_shard,
                    const std::vector<unsigned>& completed);

/// Plans degraded reads: given a lost block, picks the surviving blocks (and
/// the nodes holding them) that the degraded task must download.
///
/// The erasure code enumerates candidate reconstruction sets
/// (ec::RecoveryPlan); this planner prices each candidate with the cost
/// model against the cluster topology and emits the cheapest. For an MDS
/// code that is "any k survivors" exactly as the paper models; for an LRC
/// the local-group option wins (footnote 1); for Hitchhiker-XOR the
/// half-shard option wins whenever the stripe is healthy enough to allow it.
class DegradedReadPlanner {
 public:
  DegradedReadPlanner(const StorageLayout& layout, const net::Topology& topo,
                      const ec::ErasureCode& code,
                      SourceSelection selection = SourceSelection::kRandom,
                      RecoveryCostModel cost_model = RecoveryCostModel{});

  /// Sources for rebuilding `lost` at node `reader`. nullopt when the stripe
  /// has lost more blocks than the code tolerates.
  std::optional<std::vector<DegradedSource>> plan(
      BlockId lost, NodeId reader, const FailureScenario& failure,
      util::Rng& rng) const;

  /// Hedged variant: the same cheapest-option primary as plan() (identical
  /// RNG draws), plus up to `extra_sources` hedge fetches and the candidate
  /// option set for quorum testing. Shards flagged in `exclude` (sized n;
  /// may be empty for none) are treated as unavailable — the fetch
  /// supervisor's fallback replans exclude sources that timed out or died.
  /// nullopt when the non-excluded survivors cannot reconstruct the block.
  std::optional<HedgedPlan> plan_hedged(BlockId lost, NodeId reader,
                                        const FailureScenario& failure,
                                        util::Rng& rng, int extra_sources,
                                        const std::vector<char>& exclude = {})
      const;

  const ec::ErasureCode& code() const { return code_; }
  const StorageLayout& layout() const { return layout_; }

  /// Expected blocks one single-failure degraded read downloads under this
  /// planner's cost model (mean over the code's native shards, every other
  /// shard available): k for MDS codes, k/l for an LRC, (k + |G|)/2 blocks
  /// for Hitchhiker-XOR. Cached at construction.
  double expected_single_failure_blocks() const { return expected_blocks_; }

  /// Expected cross-rack bytes one degraded read downloads, under random
  /// source selection — the paper's (R-1)/R * k * S estimate divided out of
  /// S, with k generalized to the cost model's expected fetch volume. Used
  /// for the rack-awareness threshold.
  double expected_cross_rack_blocks() const;

 private:
  /// Price one candidate: bytes fetched weighted by the rack boundary each
  /// source crosses relative to `reader`.
  double option_cost(const ec::RecoveryOption& option, int stripe,
                     NodeId reader) const;

  const StorageLayout& layout_;
  const net::Topology& topo_;
  const ec::ErasureCode& code_;
  SourceSelection selection_;
  RecoveryCostModel cost_model_;
  double expected_blocks_;
};

}  // namespace dfs::storage
