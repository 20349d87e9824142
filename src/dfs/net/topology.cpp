#include "dfs/net/topology.h"

#include <algorithm>
#include <stdexcept>

namespace dfs::net {

Topology::Topology(int racks, int nodes_per_rack)
    : Topology(std::vector<int>(static_cast<std::size_t>(std::max(racks, 0)),
                                nodes_per_rack)) {}

Topology::Topology(const std::vector<int>& rack_sizes) {
  if (rack_sizes.empty()) {
    throw std::invalid_argument("Topology: needs at least one rack");
  }
  NodeId next = 0;
  racks_.reserve(rack_sizes.size());
  for (std::size_t r = 0; r < rack_sizes.size(); ++r) {
    if (rack_sizes[r] < 1) {
      throw std::invalid_argument("Topology: every rack needs >= 1 node");
    }
    std::vector<NodeId> members;
    members.reserve(static_cast<std::size_t>(rack_sizes[r]));
    for (int i = 0; i < rack_sizes[r]; ++i) {
      rack_of_.push_back(static_cast<RackId>(r));
      members.push_back(next++);
    }
    racks_.push_back(std::move(members));
  }
}

}  // namespace dfs::net
