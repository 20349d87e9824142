#include "dfs/sim/simulator.h"

#include <cassert>
#include <utility>

namespace dfs::sim {

std::uint32_t Simulator::allocate_slot(Callback cb) {
  std::uint32_t index;
  if (free_head_ != kFreeListEnd) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(cb);
  slot.next_free = kOccupied;
  ++pending_;
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  assert(slot.next_free == kOccupied);
  slot.fn.reset();
  if (++slot.gen == 0) slot.gen = 1;  // keep EventId::value != 0
  slot.next_free = free_head_;
  free_head_ = index;
  assert(pending_ > 0);
  --pending_;
}

EventId Simulator::schedule_in(util::Seconds delay, Callback cb) {
  assert(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(util::Seconds at, Callback cb) {
  assert(at >= now_);
  const std::uint32_t index = allocate_slot(std::move(cb));
  const std::uint32_t gen = slots_[index].gen;
  const std::uint64_t seq = next_seq_++;
  if (at == now_) {
    lane_.push_back(LaneEntry{index, gen});
  } else {
    heap_.push(Event{at, seq, index, gen});
  }
  return make_id(index, gen);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto index = static_cast<std::uint32_t>(id.value >> 32);
  const auto gen = static_cast<std::uint32_t>(id.value);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.gen != gen || slot.next_free != kOccupied) return false;
  // The heap or lane entry stays behind as a stale (slot, gen) pair; run()
  // skips it when it surfaces because the generation no longer matches.
  release_slot(index);
  return true;
}

void Simulator::schedule_periodic(util::Seconds phase, util::Seconds period,
                                  SmallPredicate cb) {
  assert(period > 0.0 && cb);
  std::uint32_t index;
  if (!free_drivers_.empty()) {
    index = free_drivers_.back();
    free_drivers_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(drivers_.size());
    drivers_.emplace_back();
  }
  drivers_[index] = PeriodicDriver{std::move(cb), period};
  // Each firing re-arms the next one, so the period survives arbitrarily
  // long simulations without pre-populating the queue.
  schedule_in(phase, [this, index] { fire_periodic(index); });
}

void Simulator::fire_periodic(std::uint32_t index) {
  firing_driver_ = index;
  const bool again = drivers_[index].fn();
  firing_driver_ = kNoDriver;
  if (again) {
    schedule_in(drivers_[index].period,
                [this, index] { fire_periodic(index); });
  } else {
    release_driver(index);
  }
}

void Simulator::release_driver(std::uint32_t index) {
  drivers_[index].fn.reset();
  free_drivers_.push_back(index);
}

util::Seconds Simulator::run(util::Seconds until) {
  for (;;) {
    // (time, seq) order: heap entries at now_ were queued before the clock
    // reached now_, so they precede every lane entry; the lane drains
    // before the heap advances the clock.
    util::Seconds time;
    std::uint32_t index;
    std::uint32_t gen;
    if (lane_head_ == lane_.size() ||
        (!heap_.empty() && heap_.top().time == now_)) {
      if (heap_.empty()) return now_;
      const Event& ev = heap_.top();
      if (until >= 0.0 && ev.time > until) break;
      time = ev.time;
      index = ev.slot;
      gen = ev.gen;
      heap_.pop();
    } else {
      if (until >= 0.0 && now_ > until) break;
      time = now_;
      index = lane_[lane_head_].slot;
      gen = lane_[lane_head_].gen;
      if (++lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
    }
    Slot& slot = slots_[index];
    if (slot.gen != gen || slot.next_free != kOccupied) {
      continue;  // cancelled (slot released, possibly recycled since)
    }
    SmallFn fn = std::move(slot.fn);
    release_slot(index);
    now_ = time;
    ++executed_;
    if (fn) fn();
  }
  now_ = until;
  return now_;
}

void Simulator::clear() {
  while (!heap_.empty()) heap_.pop();
  lane_.clear();
  lane_head_ = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].next_free == kOccupied) release_slot(i);
  }
  assert(pending_ == 0);
  // Every driver's next firing was just dropped; the one whose body is
  // running now (if any) re-arms or stops when that body returns.
  for (std::uint32_t i = 0; i < drivers_.size(); ++i) {
    if (drivers_[i].fn && i != firing_driver_) release_driver(i);
  }
}

}  // namespace dfs::sim
