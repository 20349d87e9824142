#include "dfs/storage/degraded.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dfs::storage {

namespace {

/// Cost weight of a source in the reader's rack: the unit that
/// RecoveryCostModel::cross_rack_weight is priced against.
constexpr double kInRackWeight = 1.0;

/// Options fetching any partial block are ineligible when the cost model
/// runs in whole-block mode.
bool eligible(const ec::RecoveryOption& option,
              const RecoveryCostModel& model) {
  if (model.allow_subshard) return true;
  return std::all_of(option.sources.begin(), option.sources.end(),
                     [](const ec::RecoverySource& s) {
                       return s.fraction >= 1.0;
                     });
}

int popcount_mask(unsigned mask) {
  int bits = 0;
  for (; mask != 0; mask &= mask - 1) ++bits;
  return bits;
}

}  // namespace

bool quorum_reached(const ec::ErasureCode& code,
                    const ec::RecoveryPlan& options, int lost_shard,
                    const std::vector<unsigned>& completed) {
  // (1) A candidate option is fully covered by the completed masks. This is
  // the only test that can pass on partial shards (Hitchhiker-XOR half-shard
  // sources, LRC local groups).
  for (const ec::RecoveryOption& opt : options.options) {
    bool covered = true;
    for (const ec::RecoverySource& src : opt.sources) {
      const auto s = static_cast<std::size_t>(src.shard);
      if ((src.substripes & ~completed[s]) != 0u) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  // (2) The fully-completed shards alone reconstruct the lost one — the
  // "any k of the completed" test an MDS code's single-candidate plan
  // cannot express. Gated on >= k full shards: no linear code decodes from
  // fewer.
  const unsigned all = code.full_substripe_mask();
  std::vector<int> full;
  full.reserve(completed.size());
  for (std::size_t s = 0; s < completed.size(); ++s) {
    if ((completed[s] & all) == all) full.push_back(static_cast<int>(s));
  }
  if (static_cast<int>(full.size()) < code.k()) return false;
  return code.recovery_plan(full, lost_shard).has_value();
}

DegradedReadPlanner::DegradedReadPlanner(const StorageLayout& layout,
                                         const net::Topology& topo,
                                         const ec::ErasureCode& code,
                                         SourceSelection selection,
                                         RecoveryCostModel cost_model)
    : layout_(layout),
      topo_(topo),
      code_(code),
      selection_(selection),
      cost_model_(cost_model),
      expected_blocks_(static_cast<double>(code.k())) {
  // Cache the expected single-failure fetch volume: for each native shard,
  // the cheapest eligible option with every other shard available. The
  // topology-independent byte count (weights do not enter — the caller uses
  // this as a volume) keeps the per-heartbeat threshold query O(1).
  double sum = 0.0;
  int counted = 0;
  std::vector<int> all_others;
  all_others.reserve(static_cast<std::size_t>(code.n()) - 1);
  for (int lost = 0; lost < code.k(); ++lost) {
    all_others.clear();
    for (int b = 0; b < code.n(); ++b) {
      if (b != lost) all_others.push_back(b);
    }
    const auto plan = code.recovery_plan(all_others, lost);
    if (!plan) continue;
    double best = std::numeric_limits<double>::infinity();
    for (const ec::RecoveryOption& opt : plan->options) {
      if (!eligible(opt, cost_model_)) continue;
      best = std::min(best, opt.total_fraction());
    }
    if (best == std::numeric_limits<double>::infinity()) continue;
    sum += best;
    ++counted;
  }
  if (counted > 0) expected_blocks_ = sum / counted;
}

double DegradedReadPlanner::option_cost(const ec::RecoveryOption& option,
                                        int stripe, NodeId reader) const {
  double cost = 0.0;
  for (const ec::RecoverySource& src : option.sources) {
    const NodeId holder = layout_.node_of(BlockId{stripe, src.shard});
    const double weight = topo_.same_rack(holder, reader)
                              ? kInRackWeight
                              : cost_model_.cross_rack_weight;
    cost += src.fraction * weight;
  }
  return cost;
}

std::optional<std::vector<DegradedSource>> DegradedReadPlanner::plan(
    BlockId lost, NodeId reader, const FailureScenario& failure,
    util::Rng& rng) const {
  // Candidate survivors of the same stripe, in preference order.
  std::vector<int> available;
  available.reserve(static_cast<std::size_t>(layout_.n()));
  for (int b = 0; b < layout_.n(); ++b) {
    if (b == lost.index) continue;
    const NodeId holder = layout_.node_of(BlockId{lost.stripe, b});
    if (!failure.is_failed(holder)) available.push_back(b);
  }
  rng.shuffle(available);
  if (selection_ == SourceSelection::kPreferSameRack) {
    // Closest first: blocks already on the reader (free), then the reader's
    // rack, then the rest — so stripe-affinity task placement pays off.
    std::stable_partition(available.begin(), available.end(), [&](int b) {
      return topo_.same_rack(layout_.node_of(BlockId{lost.stripe, b}),
                             reader);
    });
    std::stable_partition(available.begin(), available.end(), [&](int b) {
      return layout_.node_of(BlockId{lost.stripe, b}) == reader;
    });
  }
  const auto plan = code_.recovery_plan(available, lost.index);
  if (!plan) return std::nullopt;
  // Price every eligible candidate; a strictly cheaper one displaces the
  // incumbent, so ties resolve to the code's preferred (earliest) option.
  const ec::RecoveryOption* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const ec::RecoveryOption& opt : plan->options) {
    if (!eligible(opt, cost_model_)) continue;
    const double cost = option_cost(opt, lost.stripe, reader);
    if (cost < best_cost) {
      best_cost = cost;
      best = &opt;
    }
  }
  if (best == nullptr) return std::nullopt;
  std::vector<DegradedSource> sources;
  sources.reserve(best->sources.size());
  for (const ec::RecoverySource& src : best->sources) {
    const BlockId block{lost.stripe, src.shard};
    const NodeId holder = layout_.node_of(block);
    assert(holder != net::kInvalidNode);
    sources.push_back(
        DegradedSource{block, holder, src.fraction, src.substripes});
  }
  return sources;
}

std::optional<HedgedPlan> DegradedReadPlanner::plan_hedged(
    BlockId lost, NodeId reader, const FailureScenario& failure,
    util::Rng& rng, int extra_sources, const std::vector<char>& exclude)
    const {
  // Same survivor gathering and preference shuffle as plan(): with no
  // exclusions the primary option (and the RNG draws spent choosing it) is
  // identical to the unhedged plan.
  std::vector<int> available;
  available.reserve(static_cast<std::size_t>(layout_.n()));
  for (int b = 0; b < layout_.n(); ++b) {
    if (b == lost.index) continue;
    if (!exclude.empty() && exclude[static_cast<std::size_t>(b)]) continue;
    const NodeId holder = layout_.node_of(BlockId{lost.stripe, b});
    if (!failure.is_failed(holder)) available.push_back(b);
  }
  rng.shuffle(available);
  if (selection_ == SourceSelection::kPreferSameRack) {
    std::stable_partition(available.begin(), available.end(), [&](int b) {
      return topo_.same_rack(layout_.node_of(BlockId{lost.stripe, b}),
                             reader);
    });
    std::stable_partition(available.begin(), available.end(), [&](int b) {
      return layout_.node_of(BlockId{lost.stripe, b}) == reader;
    });
  }
  auto plan = code_.recovery_plan(available, lost.index);
  if (!plan) return std::nullopt;

  // Price the eligible options; remember them in ascending cost order
  // (stable, so ties keep the code's preference order) for hedge selection.
  struct Priced {
    double cost;
    const ec::RecoveryOption* option;
  };
  std::vector<Priced> priced;
  priced.reserve(plan->options.size());
  for (const ec::RecoveryOption& opt : plan->options) {
    if (!eligible(opt, cost_model_)) continue;
    priced.push_back(Priced{option_cost(opt, lost.stripe, reader), &opt});
  }
  if (priced.empty()) return std::nullopt;
  std::stable_sort(priced.begin(), priced.end(),
                   [](const Priced& a, const Priced& b) {
                     return a.cost < b.cost;
                   });

  HedgedPlan out;
  out.lost = lost;
  const int substripes = code_.substripe_count();
  std::vector<unsigned> selected(static_cast<std::size_t>(layout_.n()), 0u);
  const auto add_source = [&](std::vector<DegradedSource>& dst, int shard,
                              unsigned mask) {
    const unsigned fresh =
        mask & ~selected[static_cast<std::size_t>(shard)];
    if (fresh == 0u) return false;
    selected[static_cast<std::size_t>(shard)] |= fresh;
    const BlockId block{lost.stripe, shard};
    const NodeId holder = layout_.node_of(block);
    assert(holder != net::kInvalidNode);
    dst.push_back(DegradedSource{
        block, holder,
        static_cast<double>(popcount_mask(fresh)) / substripes, fresh});
    return true;
  };
  for (const ec::RecoverySource& src : priced.front().option->sources) {
    add_source(out.primary, src.shard, src.substripes);
  }
  // Hedge sources: walk the costlier options first (their sources are known
  // to combine into full alternatives), then whole leftover survivors.
  int extras_left = std::max(0, extra_sources);
  for (std::size_t p = 1; p < priced.size() && extras_left > 0; ++p) {
    for (const ec::RecoverySource& src : priced[p].option->sources) {
      if (extras_left == 0) break;
      if (add_source(out.extras, src.shard, src.substripes)) --extras_left;
    }
  }
  const unsigned all = code_.full_substripe_mask();
  for (const int shard : available) {
    if (extras_left == 0) break;
    if (add_source(out.extras, shard, all)) --extras_left;
  }
  out.options = std::move(*plan);
  return out;
}

double DegradedReadPlanner::expected_cross_rack_blocks() const {
  const double r = topo_.num_racks();
  return (r - 1.0) / r * expected_blocks_;
}

}  // namespace dfs::storage
