#include "dfs/net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "dfs/util/jsonl.h"

namespace dfs::net {

namespace {
// Flows whose residual drops below this many bytes are considered finished;
// absorbs floating-point drift from repeated rate recomputations. Real block
// and shuffle transfers are kilobytes to megabytes, so half a byte is noise.
constexpr util::Bytes kFinishEpsilon = 0.5;

// Lower bound on the time to the next completion event. Without it, a flow
// whose residual is epsilon-small can yield a horizon below the floating-
// point ULP of the current simulated time; now + horizon == now then loops
// the event queue forever at a frozen timestamp. One nanosecond of simulated
// time is far below anything the model measures and guarantees progress.
constexpr util::Seconds kMinHorizon = 1e-9;
}  // namespace

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 const LinkConfig& links, ContentionModel model)
    : sim_(simulator), topology_(topology), model_(model) {
  links_.resize(static_cast<std::size_t>(core_link()) + 1);
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    links_[static_cast<std::size_t>(node_up_link(n))].capacity = links.node_up;
    links_[static_cast<std::size_t>(node_down_link(n))].capacity =
        links.node_down;
  }
  for (RackId r = 0; r < topology_.num_racks(); ++r) {
    links_[static_cast<std::size_t>(rack_up_link(r))].capacity = links.rack_up;
    links_[static_cast<std::size_t>(rack_down_link(r))].capacity =
        links.rack_down;
  }
  links_[static_cast<std::size_t>(core_link())].capacity = links.core;
  // All per-link side tables are sized once here. The water-filling scratch
  // maintains the invariant that every seeded count returns to zero, so
  // recomputes never pay an O(links) clear; the flood-fill marks are
  // versioned by visit_epoch_ for the same reason.
  link_classes_.resize(links_.size());
  link_dirty_.assign(links_.size(), 0);
  link_visit_.assign(links_.size(), 0);
  scratch_residual_.assign(links_.size(), 0.0);
  scratch_count_.assign(links_.size(), 0);
  scratch_frozen_.assign(links_.size(), 0);
  scratch_link_flows_.resize(links_.size());
}

Network::Path Network::contended_path(NodeId src, NodeId dst) const {
  Path path;
  if (src == dst) return path;
  auto add_if_limited = [&](int link) {
    if (links_[static_cast<std::size_t>(link)].capacity !=
        util::kUnlimitedBandwidth) {
      path.push_back(link);
    }
  };
  add_if_limited(node_up_link(src));
  if (!topology_.same_rack(src, dst)) {
    add_if_limited(rack_up_link(topology_.rack_of(src)));
    add_if_limited(core_link());
    add_if_limited(rack_down_link(topology_.rack_of(dst)));
  }
  add_if_limited(node_down_link(dst));
  return path;
}

util::Seconds Network::isolated_transfer_time(NodeId src, NodeId dst,
                                              util::Bytes size) const {
  util::BytesPerSec bottleneck = std::numeric_limits<double>::infinity();
  for (int link : contended_path(src, dst)) {
    bottleneck =
        std::min(bottleneck, links_[static_cast<std::size_t>(link)].capacity);
  }
  if (bottleneck == std::numeric_limits<double>::infinity()) return 0.0;
  return size / bottleneck;
}

std::uint32_t Network::allocate_flow() {
  if (!free_flows_.empty()) {
    const std::uint32_t slot = free_flows_.back();
    free_flows_.pop_back();
    return slot;
  }
  flows_.emplace_back();
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

void Network::release_flow(std::uint32_t slot) {
  flows_[slot].done.reset();
  free_flows_.push_back(slot);
}

FlowId Network::transfer(NodeId src, NodeId dst, util::Bytes size,
                         sim::SmallFn done) {
  assert(size >= 0.0);
  const FlowId id = next_flow_id_++;
  const std::uint32_t slot = allocate_flow();
  Flow& flow = flows_[slot];
  flow.id = id;
  flow.size = size;
  flow.links = contended_path(src, dst);
  flow.done = std::move(done);
  ++flows_started_;

  if (flow.links.empty() || size <= kFinishEpsilon) {
    // Uncontended (same node, or all segments unlimited): deliver on the
    // next dispatch so callers never observe re-entrant completion.
    sim_.schedule_in(0.0, [this, slot] { finish_flow(slot); });
    return id;
  }

  if (model_ == ContentionModel::kMaxMinFairShare) {
    fair_share_add(slot);
  } else {
    fifo_pending_.push_back(slot);
    fifo_try_start_pending();
  }
  return id;
}

bool Network::cancel(FlowId id) {
  // Not started yet (FIFO queue): just drop it.
  for (auto it = fifo_pending_.begin(); it != fifo_pending_.end(); ++it) {
    if (flows_[*it].id != id) continue;
    release_flow(*it);
    fifo_pending_.erase(it);
    ++flows_cancelled_;
    return true;
  }
  const std::uint32_t* found = slot_of_.find(id);
  if (found == nullptr) {
    // Cancel-after-completion inside the current dispatch batch: the flow
    // left slot_of_ when the batch was collected, but its callback has not
    // fired yet — suppress it and count the flow cancelled. Flows at or
    // before dispatch_pos_ already delivered (or were suppressed), so a
    // second cancel of the same flow falls through to false (idempotence).
    if (dispatching_) {
      for (std::size_t i = dispatch_pos_ + 1; i < batch_.size(); ++i) {
        if (batch_[i].first != id) continue;
        if (dispatch_suppressed_[i]) return false;
        dispatch_suppressed_[i] = 1;
        ++flows_cancelled_;
        return true;
      }
    }
    return false;
  }
  const std::uint32_t slot = *found;
  slot_of_.erase(id);
  Flow& flow = flows_[slot];
  if (model_ == ContentionModel::kMaxMinFairShare) {
    fair_share_advance();
    heap_erase(classes_[static_cast<std::size_t>(flow.cls)], flow.heap_pos);
    mark_links_active(flow.links, -1);
    ++flows_cancelled_;
    fair_share_leave_class(flow.cls);
    fair_share_mark_dirty(flow.links);
    release_flow(slot);
  } else {
    sim_.cancel(flow.completion);
    for (int link : flow.links) {
      links_[static_cast<std::size_t>(link)].held = false;
    }
    mark_links_active(flow.links, -1);
    ++flows_cancelled_;
    release_flow(slot);
    fifo_try_start_pending();
  }
  return true;
}

void Network::mark_links_active(const Path& links, int delta) {
  for (int link : links) {
    Link& l = links_[static_cast<std::size_t>(link)];
    if (delta > 0 && l.active_flows == 0) l.busy_since = sim_.now();
    l.active_flows += delta;
    assert(l.active_flows >= 0);
    if (delta < 0 && l.active_flows == 0) {
      l.busy_total += sim_.now() - l.busy_since;
    }
  }
}

void Network::finish_flow(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  ++flows_completed_;
  bytes_delivered_ += flow.size;
  // Move the callback out first: it may start transfers that grow flows_
  // (and reuse this very slot).
  sim::SmallFn done = std::move(flow.done);
  release_flow(slot);
  if (done) done();
}

util::Seconds Network::rack_down_busy_time(RackId r) const {
  const Link& l = links_[static_cast<std::size_t>(rack_down_link(r))];
  util::Seconds total = l.busy_total;
  if (l.active_flows > 0) total += sim_.now() - l.busy_since;
  return total;
}

Network::Stats Network::stats() const {
  Stats s;
  s.flows_started = flows_started_;
  s.flows_completed = flows_completed_;
  s.flows_cancelled = flows_cancelled_;
  s.fast_paths = fast_paths_;
  s.full_recomputes = full_recomputes_;
  s.batched_recomputes = batched_recomputes_;
  s.component_recomputes = component_recomputes_;
  s.classes_active = static_cast<int>(live_classes_.size());
  s.bytes_delivered = bytes_delivered_;
  return s;
}

// --- class heaps -------------------------------------------------------------
//
// A binary min-heap per class, keyed only by residual bytes. Members that
// tie (equal sizes started together, or residuals clamped to zero) may sit
// in any order: nothing reads the heap's order except through `remaining`,
// and completion batches are sorted by flow id before delivery.

void Network::heap_push(FlowClass& c, Member m) {
  c.heap.push_back(m);
  heap_sift_up(c, static_cast<int>(c.heap.size()) - 1);
}

void Network::heap_erase(FlowClass& c, int pos) {
  const auto p = static_cast<std::size_t>(pos);
  assert(p < c.heap.size());
  const Member last = c.heap.back();
  c.heap.pop_back();
  if (p == c.heap.size()) return;
  c.heap[p] = last;
  flows_[last.slot].heap_pos = pos;
  const auto parent = static_cast<std::size_t>((pos - 1) / 2);
  if (pos > 0 && last.remaining < c.heap[parent].remaining) {
    heap_sift_up(c, pos);
  } else {
    heap_sift_down(c, pos);
  }
}

void Network::heap_sift_up(FlowClass& c, int pos) {
  const Member m = c.heap[static_cast<std::size_t>(pos)];
  while (pos > 0) {
    const int parent = (pos - 1) / 2;
    const Member& up = c.heap[static_cast<std::size_t>(parent)];
    if (!(m.remaining < up.remaining)) break;
    c.heap[static_cast<std::size_t>(pos)] = up;
    flows_[up.slot].heap_pos = pos;
    pos = parent;
  }
  c.heap[static_cast<std::size_t>(pos)] = m;
  flows_[m.slot].heap_pos = pos;
}

void Network::heap_sift_down(FlowClass& c, int pos) {
  const int n = static_cast<int>(c.heap.size());
  const Member m = c.heap[static_cast<std::size_t>(pos)];
  for (;;) {
    int child = 2 * pos + 1;
    if (child >= n) break;
    const auto left = static_cast<std::size_t>(child);
    if (child + 1 < n && c.heap[left + 1].remaining < c.heap[left].remaining) {
      ++child;
    }
    const Member& down = c.heap[static_cast<std::size_t>(child)];
    if (!(down.remaining < m.remaining)) break;
    c.heap[static_cast<std::size_t>(pos)] = down;
    flows_[down.slot].heap_pos = pos;
    pos = child;
  }
  c.heap[static_cast<std::size_t>(pos)] = m;
  flows_[m.slot].heap_pos = pos;
}

// --- max-min fair share ------------------------------------------------------
//
// Rates change only inside fair_share_batched_recompute(), the single
// zero-delay event every mutation coalesces into. Flow residuals, link busy
// accounting, and the active set itself are still updated eagerly at each
// mutation, so nothing observable depends on when (within the timestamp) the
// recompute runs — and since the simulator's FIFO tie-break runs the
// recompute after every already-queued event at the same timestamp, no
// simulated time ever passes under stale rates.

void Network::fair_share_add(std::uint32_t slot) {
  fair_share_advance();
  Flow& flow = flows_[slot];
  mark_links_active(flow.links, +1);
  flow.cls = fair_share_class_for(flow.links);
  FlowClass& c = classes_[static_cast<std::size_t>(flow.cls)];
  ++c.count;
  heap_push(c, Member{flow.size, slot});
  [[maybe_unused]] const bool inserted =
      slot_of_.insert(flow.id, slot);
  assert(inserted);
  fair_share_mark_dirty(flow.links);
}

int Network::fair_share_class_for(const Path& path) {
  const auto found = class_by_path_.find(path);
  if (found != class_by_path_.end()) return found->second;
  int cid;
  if (!free_classes_.empty()) {
    cid = free_classes_.back();
    free_classes_.pop_back();
  } else {
    cid = static_cast<int>(classes_.size());
    classes_.emplace_back();
  }
  FlowClass& c = classes_[static_cast<std::size_t>(cid)];
  c.links = path;
  c.count = 0;
  c.rate = 0.0;
  c.live_pos = static_cast<int>(live_classes_.size());
  live_classes_.push_back(cid);
  for (std::size_t s = 0; s < path.size(); ++s) {
    auto& lc = link_classes_[static_cast<std::size_t>(path[s])];
    c.link_pos[s] = static_cast<int>(lc.size());
    lc.emplace_back(cid, static_cast<int>(s));
  }
  class_by_path_.emplace(path, cid);
  return cid;
}

void Network::fair_share_leave_class(int cid) {
  FlowClass& c = classes_[static_cast<std::size_t>(cid)];
  assert(c.count > 0);
  if (--c.count > 0) return;
  assert(c.heap.empty());
  // Last member gone: unlink the class from every link's membership list
  // (swap-removal; the back-reference in the moved entry is patched) and
  // recycle the slot.
  for (std::size_t s = 0; s < c.links.size(); ++s) {
    auto& lc = link_classes_[static_cast<std::size_t>(c.links[s])];
    const auto pos = static_cast<std::size_t>(c.link_pos[s]);
    const std::pair<int, int> moved = lc.back();
    lc[pos] = moved;
    lc.pop_back();
    if (pos < lc.size()) {
      classes_[static_cast<std::size_t>(moved.first)]
          .link_pos[static_cast<std::size_t>(moved.second)] =
          static_cast<int>(pos);
    }
  }
  const int moved_cid = live_classes_.back();
  live_classes_[static_cast<std::size_t>(c.live_pos)] = moved_cid;
  classes_[static_cast<std::size_t>(moved_cid)].live_pos = c.live_pos;
  live_classes_.pop_back();
  c.live_pos = -1;
  class_by_path_.erase(c.links);
  c.links = Path{};
  free_classes_.push_back(cid);
}

void Network::fair_share_mark_dirty(const Path& links) {
  for (const int l : links) {
    if (!link_dirty_[static_cast<std::size_t>(l)]) {
      link_dirty_[static_cast<std::size_t>(l)] = 1;
      dirty_links_.push_back(l);
    }
  }
  // The armed completion horizon was computed from the pre-change rates;
  // disarm it and let the batched recompute re-arm from fresh ones (exactly
  // what the old per-mutation recompute did with its cancel-and-rearm). The
  // recompute runs at the current timestamp, so no time passes in between.
  if (next_completion_.valid()) {
    sim_.cancel(next_completion_);
    next_completion_ = {};
  }
  if (!recompute_scheduled_) {
    recompute_scheduled_ = true;
    sim_.schedule_now([this] { fair_share_batched_recompute(); });
  }
}

void Network::fair_share_advance() {
  const util::Seconds now = sim_.now();
  const util::Seconds dt = now - last_advance_;
  if (dt > 0.0) {
    // The per-flow expression of the hash-map engine, member by member. One
    // class's members all lose the same amount and max(0, ·) is monotone,
    // so no heap is reordered.
    for (const int cid : live_classes_) {
      FlowClass& c = classes_[static_cast<std::size_t>(cid)];
      for (Member& m : c.heap) {
        m.remaining = std::max(0.0, m.remaining - c.rate * dt);
      }
    }
  }
  last_advance_ = now;
}

void Network::fair_share_batched_recompute() {
  recompute_scheduled_ = false;
  ++batched_recomputes_;
  fair_share_advance();
  // Flood-fill the class/link sharing graph from every dirty link; each
  // fill is one connected component, water-filled in isolation as soon as
  // it closes (max–min allocations decompose over components, so everyone
  // outside keeps their rate, and the flood-fill never reads the rates or
  // scratch a pass writes). A dirty link with no classes left is the old
  // idle-removal case: its departures shared nothing with any survivor.
  const util::Epoch::Ticket epoch = visit_epoch_.bump();
  for (const int seed : dirty_links_) {
    link_dirty_[static_cast<std::size_t>(seed)] = 0;
    if (link_visit_[static_cast<std::size_t>(seed)] == epoch) continue;
    link_visit_[static_cast<std::size_t>(seed)] = epoch;
    if (link_classes_[static_cast<std::size_t>(seed)].empty()) continue;
    comp_links_.clear();
    comp_classes_.clear();
    comp_links_.push_back(seed);
    for (std::size_t qi = 0; qi < comp_links_.size(); ++qi) {
      const auto l = static_cast<std::size_t>(comp_links_[qi]);
      for (const auto& entry : link_classes_[l]) {
        FlowClass& c = classes_[static_cast<std::size_t>(entry.first)];
        if (c.visit == epoch) continue;
        c.visit = epoch;
        comp_classes_.push_back(entry.first);
        for (const int l2 : c.links) {
          if (link_visit_[static_cast<std::size_t>(l2)] == epoch) continue;
          link_visit_[static_cast<std::size_t>(l2)] = epoch;
          comp_links_.push_back(l2);
        }
      }
    }
    if (comp_classes_.size() == 1) {
      ++fast_paths_;
    } else {
      ++component_recomputes_;
    }
    fair_share_waterfill_component();
  }
  dirty_links_.clear();
  if (cross_check_) fair_share_cross_check();
  fair_share_arm();
}

void Network::fair_share_waterfill_component() {
  if (comp_classes_.size() == 1) {
    // Single class: progressive filling would run exactly one round and
    // freeze it at its path bottleneck share. Computing that share directly
    // subsumes the old isolated-flow fast path and generalizes it to any
    // multiplicity.
    FlowClass& c = classes_[static_cast<std::size_t>(comp_classes_.front())];
    double best = std::numeric_limits<double>::infinity();
    for (const int l : c.links) {
      const double share =
          std::max(0.0, links_[static_cast<std::size_t>(l)].capacity) /
          c.count;
      best = std::min(best, share);
    }
    c.rate = best;
    return;
  }
  // Progressive water-filling over classes: repeatedly saturate the link
  // with the lowest per-flow fair share and freeze the classes that cross
  // it at that share.
  for (const int l : comp_links_) {
    scratch_residual_[static_cast<std::size_t>(l)] =
        links_[static_cast<std::size_t>(l)].capacity;
    scratch_count_[static_cast<std::size_t>(l)] = 0;
  }
  long unfrozen = 0;
  for (const int cid : comp_classes_) {
    FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    c.wf_rate = -1.0;  // unfrozen marker
    unfrozen += c.count;
    for (const int l : c.links) {
      scratch_count_[static_cast<std::size_t>(l)] += c.count;
    }
  }
  while (unfrozen > 0) {
    int bottleneck = -1;
    double best_share = std::numeric_limits<double>::infinity();
    for (const int link : comp_links_) {
      const auto l = static_cast<std::size_t>(link);
      if (scratch_count_[l] <= 0) continue;
      const double share =
          std::max(0.0, scratch_residual_[l]) / scratch_count_[l];
      if (share < best_share) {
        best_share = share;
        bottleneck = link;
      }
    }
    assert(bottleneck >= 0 && "every class crosses at least one limited link");
    // Freeze first, then charge the links: every subtraction of a round is
    // the same best_share, so the per-link sequence does not depend on the
    // order of the classes, and a link whose unfrozen count fell to zero
    // this round is never read again in this pass (the scan skips it and
    // the next pass re-seeds it), so it is not charged at all.
    round_links_.clear();
    for (const auto& entry :
         link_classes_[static_cast<std::size_t>(bottleneck)]) {
      FlowClass& c = classes_[static_cast<std::size_t>(entry.first)];
      if (c.wf_rate >= 0.0) continue;  // already frozen via another link
      c.wf_rate = best_share;
      unfrozen -= c.count;
      for (const int link : c.links) {
        const auto l = static_cast<std::size_t>(link);
        if (scratch_frozen_[l] == 0) round_links_.push_back(link);
        scratch_frozen_[l] += c.count;
        scratch_count_[l] -= c.count;
      }
    }
    for (const int link : round_links_) {
      const auto l = static_cast<std::size_t>(link);
      const int frozen = scratch_frozen_[l];
      scratch_frozen_[l] = 0;
      if (scratch_count_[l] <= 0) continue;
      // One subtraction per member flow, not one fused count*share
      // multiply: this replays the naive per-flow pass's floating-point
      // sequence exactly, keeping the aggregated engine bit-identical to
      // the reference (and to the pre-aggregation engine's outputs).
      double& r = scratch_residual_[l];
      for (int m = 0; m < frozen; ++m) r -= best_share;
    }
  }
  for (const int cid : comp_classes_) {
    FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    c.rate = c.wf_rate;
  }
}

void Network::fair_share_arm() {
  if (next_completion_.valid()) {
    sim_.cancel(next_completion_);
    next_completion_ = {};
  }
  if (live_classes_.empty()) return;

  // Arm the next completion event: the earliest front of any class.
  // Division by a positive rate is monotone, so front / rate is exactly the
  // minimum of every member's remaining / rate. Classes frozen at a zero
  // rate (possible only through floating-point drift on a saturated link)
  // simply wait for the next recompute, when a competing flow's completion
  // frees capacity.
  util::Seconds horizon = std::numeric_limits<double>::infinity();
  for (const int cid : live_classes_) {
    const FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    assert(!c.heap.empty());
    if (c.rate <= 0.0) continue;
    horizon = std::min(horizon, c.heap.front().remaining / c.rate);
  }
  assert(horizon < std::numeric_limits<double>::infinity());
  next_completion_ = sim_.schedule_in(std::max(kMinHorizon, horizon),
                                      [this] { fair_share_on_completion(); });
}

void Network::fair_share_on_completion() {
  next_completion_ = {};
  fair_share_advance();
  batch_.clear();
  for (const int cid : live_classes_) {
    FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    while (!c.heap.empty() && c.heap.front().remaining <= kFinishEpsilon) {
      const std::uint32_t slot = c.heap.front().slot;
      heap_erase(c, 0);
      batch_.emplace_back(flows_[slot].id, slot);
    }
  }
  if (batch_.empty()) {
    // Nothing actually crossed the finish line (floating-point drift on the
    // horizon); re-arm from the unchanged rates and try again.
    fair_share_arm();
    return;
  }
  // Deliver same-instant completions in ascending id (start) order, so
  // outputs never depend on how classes or heaps hold their members.
  std::sort(batch_.begin(), batch_.end());
  // Mark dirty before the callbacks so their re-entrant transfers coalesce
  // into the same zero-delay recompute, which also performs the final
  // re-arm for this timestamp.
  for (const auto& [id, slot] : batch_) {
    const Flow& f = flows_[slot];
    slot_of_.erase(id);
    mark_links_active(f.links, -1);
    fair_share_leave_class(f.cls);
    fair_share_mark_dirty(f.links);
  }
  // Deliver the batch. A callback may cancel() a later flow of this same
  // batch (hedged reads cancelling losers); cancel marks it in
  // dispatch_suppressed_ and the loop skips it — cancelled, not completed.
  dispatch_suppressed_.assign(batch_.size(), 0);
  dispatching_ = true;
  for (dispatch_pos_ = 0; dispatch_pos_ < batch_.size(); ++dispatch_pos_) {
    const std::uint32_t slot = batch_[dispatch_pos_].second;
    if (dispatch_suppressed_[dispatch_pos_]) {
      release_flow(slot);
    } else {
      finish_flow(slot);
    }
  }
  dispatching_ = false;
}

void Network::fair_share_naive_rates(std::vector<double>& out) {
  ++full_recomputes_;
  out.assign(flows_.size(), -1.0);  // unfrozen marker
  if (live_classes_.empty()) return;

  // The pre-aggregation engine's progressive water-filling, verbatim, over
  // individual flows: the reference every class/component/batching decision
  // is checked against. Scratch counts return to zero by construction (one
  // increment while seeding, one decrement when the flow freezes), so the
  // production component passes never see leftovers.
  scratch_touched_.clear();
  std::size_t unfrozen = 0;
  for (const int cid : live_classes_) {
    for (const Member& m : classes_[static_cast<std::size_t>(cid)].heap) {
      ++unfrozen;
      for (int link : flows_[m.slot].links) {
        const auto l = static_cast<std::size_t>(link);
        if (scratch_count_[l] == 0) {
          scratch_touched_.push_back(link);
          scratch_residual_[l] = links_[l].capacity;
          scratch_link_flows_[l].clear();
        }
        ++scratch_count_[l];
        scratch_link_flows_[l].push_back(m.slot);
      }
    }
  }
  while (unfrozen > 0) {
    int bottleneck = -1;
    double best_share = std::numeric_limits<double>::infinity();
    for (const int link : scratch_touched_) {
      const auto l = static_cast<std::size_t>(link);
      if (scratch_count_[l] <= 0) continue;
      const double share =
          std::max(0.0, scratch_residual_[l]) / scratch_count_[l];
      if (share < best_share) {
        best_share = share;
        bottleneck = link;
      }
    }
    assert(bottleneck >= 0 && "every flow crosses at least one limited link");
    for (const std::uint32_t slot :
         scratch_link_flows_[static_cast<std::size_t>(bottleneck)]) {
      double& rate = out[slot];
      if (rate >= 0.0) continue;  // already frozen via another link
      rate = best_share;
      --unfrozen;
      for (int link : flows_[slot].links) {
        scratch_residual_[static_cast<std::size_t>(link)] -= best_share;
        --scratch_count_[static_cast<std::size_t>(link)];
      }
    }
  }
}

void Network::fair_share_cross_check() {
  // Bookkeeping invariants: every live class is indexed by its path, holds
  // a valid min-heap whose entries point back at their positions, and the
  // class multiplicities tile the active set exactly.
  if (class_by_path_.size() != live_classes_.size()) {
    throw std::logic_error(
        "fair-share cross check: path index and live classes disagree");
  }
  std::size_t members = 0;
  for (const int cid : live_classes_) {
    const FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    if (c.count <= 0) {
      throw std::logic_error("fair-share cross check: empty class survived");
    }
    if (c.heap.size() != static_cast<std::size_t>(c.count)) {
      throw std::logic_error(
          "fair-share cross check: class heap does not hold its members");
    }
    for (std::size_t i = 0; i < c.heap.size(); ++i) {
      const Member& m = c.heap[i];
      if (flows_[m.slot].heap_pos != static_cast<int>(i) ||
          flows_[m.slot].cls != cid ||
          (i > 0 && m.remaining < c.heap[(i - 1) / 2].remaining)) {
        throw std::logic_error(
            "fair-share cross check: class heap order or back-reference "
            "broken");
      }
    }
    members += static_cast<std::size_t>(c.count);
  }
  if (members != slot_of_.size()) {
    throw std::logic_error(
        "fair-share cross check: class multiplicities (" +
        std::to_string(members) + ") do not tile the active set (" +
        std::to_string(slot_of_.size()) + ")");
  }
  // Re-derive every rate with the naive per-flow reference and demand
  // agreement (up to floating-point noise: the reference accumulates link
  // residuals in flow order rather than class order).
  std::vector<double> naive;
  fair_share_naive_rates(naive);
  for (const int cid : live_classes_) {
    const FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    for (const Member& m : c.heap) {
      const double engine = c.rate;
      const double full = naive[m.slot];
      const double tol = 1e-9 * std::max(1.0, std::abs(full));
      if (std::abs(full - engine) > tol) {
        throw std::logic_error(
            "fair-share batched/aggregated engine diverged from the naive "
            "per-flow pass: flow " +
            std::to_string(flows_[m.slot].id) +
            " engine=" + std::to_string(engine) +
            " naive=" + std::to_string(full));
      }
    }
  }
}

// --- exclusive FIFO (the paper's NodeTree hold model) -------------------------

void Network::fifo_try_start_pending() {
  for (auto it = fifo_pending_.begin(); it != fifo_pending_.end();) {
    const std::uint32_t slot = *it;
    Flow& flow = flows_[slot];
    const bool all_free = std::all_of(
        flow.links.begin(), flow.links.end(), [this](int link) {
          return !links_[static_cast<std::size_t>(link)].held;
        });
    if (!all_free) {
      ++it;
      continue;
    }
    it = fifo_pending_.erase(it);
    for (int link : flow.links) {
      links_[static_cast<std::size_t>(link)].held = true;
    }
    mark_links_active(flow.links, +1);
    util::BytesPerSec bottleneck = std::numeric_limits<double>::infinity();
    for (int link : flow.links) {
      bottleneck = std::min(
          bottleneck, links_[static_cast<std::size_t>(link)].capacity);
    }
    const util::Seconds duration = flow.size / bottleneck;
    [[maybe_unused]] const bool inserted =
        slot_of_.insert(flow.id, slot);
    assert(inserted);
    flow.completion =
        sim_.schedule_in(duration, [this, slot] { fifo_complete(slot); });
  }
}

void Network::fifo_complete(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  slot_of_.erase(flow.id);
  for (int link : flow.links) {
    links_[static_cast<std::size_t>(link)].held = false;
  }
  mark_links_active(flow.links, -1);
  finish_flow(slot);
  fifo_try_start_pending();
}

void append_net_stats(util::JsonlWriter& w, const Network::Stats& s) {
  w.field("flows_started", s.flows_started)
      .field("flows_completed", s.flows_completed)
      .field("flows_cancelled", s.flows_cancelled)
      .field("fast_paths", s.fast_paths)
      .field("full_recomputes", s.full_recomputes)
      .field("batched_recomputes", s.batched_recomputes)
      .field("component_recomputes", s.component_recomputes)
      .field("classes_active", s.classes_active)
      .field("bytes_delivered", s.bytes_delivered);
}

}  // namespace dfs::net
