#include "dfs/storage/layout.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "dfs/util/id_bitset.h"

namespace dfs::storage {

namespace bits = util::bits;

namespace {

/// Throws std::invalid_argument unless the file splits into whole stripes
/// and the racks can hold n blocks with at most n-k per rack.
void require_rack_rule_feasible(int num_native_blocks, int n, int k,
                                const net::Topology& topo) {
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
}

/// Nodes bucketed by placement load: level L is the bitset of nodes that
/// currently store L blocks of the file being placed.
class LoadLevels {
 public:
  explicit LoadLevels(int num_nodes)
      : words_(bits::words_for(num_nodes)),
        load_(static_cast<std::size_t>(num_nodes), 0),
        levels_(words_, 0),
        level_size_(1, num_nodes) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      bits::set(levels_.data(), node);
    }
  }

  std::size_t words() const { return words_; }
  int num_levels() const { return static_cast<int>(level_size_.size()); }
  /// Lowest level with a member.
  int lowest() const { return lowest_; }
  /// Level l's words; valid until the next raise() grows the level array.
  const bits::Word* level(int l) const {
    return levels_.data() + static_cast<std::size_t>(l) * words_;
  }

  /// One more block on `node`.
  void raise(NodeId node) {
    int& l = load_[static_cast<std::size_t>(node)];
    bits::clear(levels_.data() + static_cast<std::size_t>(l) * words_, node);
    --level_size_[static_cast<std::size_t>(l)];
    ++l;
    if (static_cast<std::size_t>(l) == level_size_.size()) {
      levels_.resize(levels_.size() + words_, 0);
      level_size_.push_back(0);
    }
    bits::set(levels_.data() + static_cast<std::size_t>(l) * words_, node);
    ++level_size_[static_cast<std::size_t>(l)];
    while (level_size_[static_cast<std::size_t>(lowest_)] == 0) ++lowest_;
  }

 private:
  std::size_t words_;
  std::vector<int> load_;
  std::vector<bits::Word> levels_;  ///< level l at [l * words_, (l+1) * words_)
  std::vector<int> level_size_;     ///< members per level
  int lowest_ = 0;
};

}  // namespace

StorageLayout::StorageLayout(int n, int k,
                             std::vector<std::vector<NodeId>> placement)
    : n_(n), k_(k), placement_(std::move(placement)) {
  if (k <= 0 || n <= k) throw std::invalid_argument("layout requires 0<k<n");
  for (const auto& stripe : placement_) {
    if (static_cast<int>(stripe.size()) != n) {
      throw std::invalid_argument("each stripe must place n blocks");
    }
  }
}

std::vector<BlockId> StorageLayout::blocks_on_node(NodeId node) const {
  std::vector<BlockId> out;
  for (int s = 0; s < num_stripes(); ++s) {
    for (int b = 0; b < n_; ++b) {
      if (placement_[static_cast<std::size_t>(s)][static_cast<std::size_t>(b)] ==
          node) {
        out.push_back(BlockId{s, b});
      }
    }
  }
  return out;
}

std::vector<int> StorageLayout::node_load(int num_nodes) const {
  std::vector<int> load(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& stripe : placement_) {
    for (NodeId node : stripe) {
      assert(node >= 0 && node < num_nodes);
      ++load[static_cast<std::size_t>(node)];
    }
  }
  return load;
}

bool StorageLayout::satisfies_placement_rule(const net::Topology& topo,
                                             int max_per_rack) const {
  for (const auto& stripe : placement_) {
    std::unordered_set<NodeId> nodes;
    std::vector<int> per_rack(static_cast<std::size_t>(topo.num_racks()), 0);
    for (NodeId node : stripe) {
      if (!nodes.insert(node).second) return false;  // two blocks, one node
      if (++per_rack[static_cast<std::size_t>(topo.rack_of(node))] >
          max_per_rack) {
        return false;
      }
    }
  }
  return true;
}

StorageLayout round_robin_layout(int num_native_blocks, int n, int k,
                                 int num_nodes) {
  if (num_native_blocks % k != 0) {
    throw std::invalid_argument("native block count must be a multiple of k");
  }
  if (n > num_nodes) {
    throw std::invalid_argument("round-robin needs at least n nodes");
  }
  const int stripes = num_native_blocks / k;
  std::vector<std::vector<NodeId>> placement(
      static_cast<std::size_t>(stripes));
  for (int s = 0; s < stripes; ++s) {
    auto& row = placement[static_cast<std::size_t>(s)];
    row.resize(static_cast<std::size_t>(n));
    for (int b = 0; b < n; ++b) {
      // Rotate each stripe's starting node so both natives and parities
      // spread evenly (e.g. the §VI testbed: 240 natives under (12,10) on
      // 12 slaves gives each slave exactly 20 natives + 4 parities).
      row[static_cast<std::size_t>(b)] = (s + b) % num_nodes;
    }
  }
  return StorageLayout(n, k, std::move(placement));
}

StorageLayout random_rack_constrained_layout(int num_native_blocks, int n,
                                             int k, const net::Topology& topo,
                                             util::Rng& rng) {
  require_rack_rule_feasible(num_native_blocks, n, k, topo);
  const int max_per_rack = n - k;
  const int stripes = num_native_blocks / k;
  const int num_nodes = topo.num_nodes();
  LoadLevels levels(num_nodes);
  const std::size_t words = levels.words();
  std::vector<bits::Word> all(words, 0);
  for (NodeId node = 0; node < num_nodes; ++node) bits::set(all.data(), node);
  // Per-stripe legality: nodes the stripe has not used, in racks still
  // below max_per_rack.
  std::vector<bits::Word> legal(words);
  std::vector<int> rack_count(static_cast<std::size_t>(topo.num_racks()), 0);
  std::vector<std::vector<NodeId>> placement(
      static_cast<std::size_t>(stripes));

  for (int s = 0; s < stripes; ++s) {
    auto& row = placement[static_cast<std::size_t>(s)];
    row.reserve(static_cast<std::size_t>(n));
    std::copy(all.begin(), all.end(), legal.begin());
    for (int b = 0; b < n; ++b) {
      // Greedy parity declustering: among nodes that keep the stripe legal,
      // prefer the least-loaded, breaking ties randomly. The candidates are
      // the legal members of the lowest load level that has one, in
      // ascending id order, and one Rng draw picks among them. A legal node
      // always remains: the rack quotas form a partition matroid whose rank
      // reaches n (checked above), so every legal partial stripe extends.
      int level = levels.lowest();
      long count = 0;
      while ((count = bits::count_and(levels.level(level), legal.data(),
                                      words)) == 0) {
        ++level;
        assert(level < levels.num_levels());
      }
      const NodeId chosen = bits::select_and(
          levels.level(level), legal.data(), words,
          static_cast<long>(rng.index(static_cast<std::size_t>(count))));
      row.push_back(chosen);
      bits::clear(legal.data(), chosen);
      const RackId rack = topo.rack_of(chosen);
      if (++rack_count[static_cast<std::size_t>(rack)] == max_per_rack) {
        for (NodeId node : topo.nodes_in_rack(rack)) {
          bits::clear(legal.data(), node);
        }
      }
      levels.raise(chosen);
    }
    for (NodeId node : row) {
      rack_count[static_cast<std::size_t>(topo.rack_of(node))] = 0;
    }
  }
  return StorageLayout(n, k, std::move(placement));
}

StorageLayout zipf_rack_skewed_layout(int num_native_blocks, int n, int k,
                                      const net::Topology& topo,
                                      util::Rng& rng, double exponent) {
  if (exponent < 0.0) {
    throw std::invalid_argument("skew exponent must be >= 0");
  }
  require_rack_rule_feasible(num_native_blocks, n, k, topo);
  const int max_per_rack = n - k;
  const int stripes = num_native_blocks / k;
  const int num_nodes = topo.num_nodes();
  const auto num_racks = static_cast<std::size_t>(topo.num_racks());
  std::vector<int> load(static_cast<std::size_t>(num_nodes), 0);
  std::vector<std::vector<NodeId>> placement(
      static_cast<std::size_t>(stripes));

  // Picks the least-loaded unused node of `rack` (random tie-break), or -1
  // if the rack has no unused node.
  const auto pick_in_rack = [&](RackId rack, const std::vector<bool>& used) {
    NodeId best = -1;
    int best_load = 0;
    int ties = 0;
    for (const NodeId node : topo.nodes_in_rack(rack)) {
      if (used[static_cast<std::size_t>(node)]) continue;
      const int l = load[static_cast<std::size_t>(node)];
      if (best < 0 || l < best_load) {
        best = node;
        best_load = l;
        ties = 1;
      } else if (l == best_load) {
        // Reservoir-style single-slot tie-break keeps one uniform draw per
        // tie instead of materializing a candidate list.
        ++ties;
        if (rng.index(static_cast<std::size_t>(ties)) == 0) best = node;
      }
    }
    return best;
  };

  for (int s = 0; s < stripes; ++s) {
    auto& row = placement[static_cast<std::size_t>(s)];
    row.reserve(static_cast<std::size_t>(n));
    std::vector<bool> used(static_cast<std::size_t>(num_nodes), false);
    std::vector<int> rack_count(num_racks, 0);
    const auto rack_open = [&](RackId r) {
      if (rack_count[static_cast<std::size_t>(r)] >= max_per_rack) {
        return false;
      }
      for (const NodeId node : topo.nodes_in_rack(r)) {
        if (!used[static_cast<std::size_t>(node)]) return true;
      }
      return false;
    };
    for (int b = 0; b < n; ++b) {
      // Zipf rank 1 is rack 0: low-numbered racks are hot. A full rack
      // falls back to the hottest rack with remaining capacity, so the
      // stripe stays legal (feasibility was verified above, and the rack
      // quotas form a partition matroid: greedy placement cannot dead-end).
      auto rack = static_cast<RackId>(rng.zipf(num_racks, exponent) - 1);
      if (!rack_open(rack)) {
        rack = -1;
        for (RackId r = 0; r < topo.num_racks(); ++r) {
          if (rack_open(r)) {
            rack = r;
            break;
          }
        }
      }
      assert(rack >= 0);
      const NodeId chosen = pick_in_rack(rack, used);
      assert(chosen >= 0);
      row.push_back(chosen);
      used[static_cast<std::size_t>(chosen)] = true;
      ++rack_count[static_cast<std::size_t>(rack)];
      ++load[static_cast<std::size_t>(chosen)];
    }
  }
  return StorageLayout(n, k, std::move(placement));
}

StorageLayout replicated_layout(int num_blocks, int replicas,
                                const net::Topology& topo, util::Rng& rng) {
  if (replicas < 2) throw std::invalid_argument("need >= 2 replicas");
  if (topo.num_racks() < 2) {
    throw std::invalid_argument("replication placement needs >= 2 racks");
  }
  bool feasible = false;
  for (RackId r = 0; r < topo.num_racks(); ++r) {
    if (static_cast<int>(topo.nodes_in_rack(r).size()) >= replicas - 1) {
      feasible = true;
      break;
    }
  }
  if (!feasible) {
    throw std::invalid_argument("no rack can host the remote replicas");
  }
  std::vector<std::vector<NodeId>> placement(
      static_cast<std::size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) {
    auto& row = placement[static_cast<std::size_t>(b)];
    const NodeId first = rng.uniform_int(0, topo.num_nodes() - 1);
    row.push_back(first);
    // Pick a different rack large enough for the remaining copies.
    RackId remote;
    do {
      remote = rng.uniform_int(0, topo.num_racks() - 1);
    } while (remote == topo.rack_of(first) ||
             static_cast<int>(topo.nodes_in_rack(remote).size()) <
                 replicas - 1);
    const auto& members = topo.nodes_in_rack(remote);
    const auto picks = rng.sample_indices(
        members.size(), static_cast<std::size_t>(replicas - 1));
    for (const auto p : picks) row.push_back(members[p]);
  }
  return StorageLayout(replicas, 1, std::move(placement));
}

}  // namespace dfs::storage
