#pragma once

#include <cassert>
#include <vector>

namespace dfs::net {

using NodeId = int;
using RackId = int;

/// Typed "no such node" sentinel: the default for not-yet-resolved NodeId
/// fields (e.g. a degraded source before the planner fills the holder in).
/// Planners must never emit it — storage::DegradedReadPlanner asserts so.
inline constexpr NodeId kInvalidNode = -1;

/// Two-level cluster topology (Fig. 1 of the paper): nodes grouped into
/// racks, each rack behind a top-of-rack switch, racks joined by a core
/// switch. Racks may have unequal sizes (the motivating example uses a
/// 3-node rack and a 2-node rack).
class Topology {
 public:
  /// Uniform topology: `racks` racks of `nodes_per_rack` nodes each.
  /// Both constructors throw std::invalid_argument on no racks or a rack
  /// without nodes.
  Topology(int racks, int nodes_per_rack);

  /// Explicit topology: `rack_sizes[r]` nodes in rack r.
  explicit Topology(const std::vector<int>& rack_sizes);

  int num_nodes() const { return static_cast<int>(rack_of_.size()); }
  int num_racks() const { return static_cast<int>(racks_.size()); }

  RackId rack_of(NodeId n) const {
    assert(n >= 0 && n < num_nodes());
    return rack_of_[static_cast<std::size_t>(n)];
  }

  const std::vector<NodeId>& nodes_in_rack(RackId r) const {
    assert(r >= 0 && r < num_racks());
    return racks_[static_cast<std::size_t>(r)];
  }

  bool same_rack(NodeId a, NodeId b) const { return rack_of(a) == rack_of(b); }

 private:
  std::vector<RackId> rack_of_;             // node -> rack
  std::vector<std::vector<NodeId>> racks_;  // rack -> nodes
};

}  // namespace dfs::net
