#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "dfs/net/topology.h"
#include "dfs/util/id_bitset.h"
#include "dfs/util/stale_queue.h"

namespace dfs::mapreduce {

using net::NodeId;
using net::RackId;

/// One job's per-node pools of pending map-task indexes, indexed by live
/// count. A task sits in the pool of every node holding a readable copy.
/// Assignment elsewhere (or losing this node's copy) invalidates the entry
/// in O(1); re-entry repushes so a surviving entry keeps its queue position
/// (predicate semantics — see util::StaleQueue).
///
/// Every mutation goes through this class, so the index of nodes by live
/// count can never disagree with the queues: a node with c > 0 live tasks
/// is a member of bitset level c. That turns "the node with the largest
/// backlog outside my rack, lowest id on ties" — the remote-task choice —
/// from a scan of every node into a walk down the levels that skips at
/// most one rack's members.
class PendingPool {
 public:
  PendingPool() = default;
  explicit PendingPool(int num_nodes)
      : queues_(static_cast<std::size_t>(num_nodes)),
        words_(util::bits::words_for(num_nodes)),
        level_size_(1, 0) {}

  /// Exact number of pending tasks with a readable copy on `node`.
  long live_count(NodeId node) const { return queue(node).live_count(); }

  /// Queue slots held (one per node; 0 once the pool is released).
  std::size_t capacity() const { return queues_.capacity(); }

  /// util::StaleQueue::repush on `node`'s pool.
  void repush(NodeId node, int map_idx) {
    queue(node).repush(map_idx);
    moved_up(node);
  }

  /// util::StaleQueue::invalidate on `node`'s pool.
  bool invalidate(NodeId node, int map_idx) {
    if (!queue(node).invalidate(map_idx)) return false;
    moved_down(node);
    return true;
  }

  /// util::StaleQueue::pop on `node`'s pool.
  std::optional<int> pop(NodeId node) {
    std::optional<int> map_idx = queue(node).pop();
    if (map_idx) moved_down(node);
    return map_idx;
  }

  /// The node outside `rack` with the most live tasks, lowest id on ties,
  /// or -1 when every node outside `rack` has none.
  NodeId most_loaded_outside(RackId rack, const net::Topology& topo) const {
    for (long c = top_; c >= 1; --c) {
      if (level_size_[static_cast<std::size_t>(c)] == 0) continue;
      const util::bits::Word* level = level_words(c);
      for (std::size_t w = 0; w < words_; ++w) {
        for (util::bits::Word x = level[w]; x != 0; x &= x - 1) {
          const NodeId node = static_cast<NodeId>(w) * util::bits::kWordBits +
                              std::countr_zero(x);
          if (topo.rack_of(node) != rack) return node;
        }
      }
    }
    return -1;
  }

 private:
  util::StaleQueue<int>& queue(NodeId node) {
    assert(node >= 0 && static_cast<std::size_t>(node) < queues_.size());
    return queues_[static_cast<std::size_t>(node)];
  }
  const util::StaleQueue<int>& queue(NodeId node) const {
    assert(node >= 0 && static_cast<std::size_t>(node) < queues_.size());
    return queues_[static_cast<std::size_t>(node)];
  }

  util::bits::Word* level_words(long c) {
    return levels_.data() + static_cast<std::size_t>(c - 1) * words_;
  }
  const util::bits::Word* level_words(long c) const {
    return levels_.data() + static_cast<std::size_t>(c - 1) * words_;
  }

  /// live_count(node) just rose by one.
  void moved_up(NodeId node) {
    const long c = live_count(node);
    if (c > 1) leave(node, c - 1);
    if (static_cast<std::size_t>(c) == level_size_.size()) {
      levels_.resize(levels_.size() + words_, 0);
      level_size_.push_back(0);
    }
    enter(node, c);
    if (c > top_) top_ = c;
  }

  /// live_count(node) just fell by one.
  void moved_down(NodeId node) {
    const long c = live_count(node);
    leave(node, c + 1);
    if (c > 0) enter(node, c);
    while (top_ > 0 && level_size_[static_cast<std::size_t>(top_)] == 0) {
      --top_;
    }
  }

  void enter(NodeId node, long c) {
    util::bits::set(level_words(c), node);
    ++level_size_[static_cast<std::size_t>(c)];
  }
  void leave(NodeId node, long c) {
    util::bits::clear(level_words(c), node);
    --level_size_[static_cast<std::size_t>(c)];
  }

  std::vector<util::StaleQueue<int>> queues_;
  std::size_t words_ = 0;
  /// Level c >= 1 (nodes with exactly c live tasks) at words
  /// [(c-1) * words_, c * words_); level 0 is not kept.
  std::vector<util::bits::Word> levels_;
  std::vector<int> level_size_;  ///< members per level; [0] unused
  long top_ = 0;                 ///< highest level with a member, 0 if none
};

}  // namespace dfs::mapreduce
