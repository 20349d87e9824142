#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "dfs/sim/small_fn.h"
#include "dfs/util/units.h"

namespace dfs::sim {

/// Handle to a scheduled event; lets the owner cancel it before it fires.
///
/// Encodes a slab slot index plus a per-slot generation tag, so a handle to
/// an event that already fired (or whose slot was recycled for a newer
/// event) is detected in O(1) without any lookup table.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

/// Discrete-event simulation kernel.
///
/// This is the substrate the paper built on CSIM20: a clock plus an event
/// queue. Components schedule closures at absolute or relative simulated
/// times; `run()` drains the queue in time order. Ties are broken by
/// scheduling order (FIFO), which keeps runs fully deterministic for a given
/// seed — a property the simulation experiments and tests depend on.
///
/// Events live in a slab of generation-tagged slots: scheduling an event
/// whose closure fits SmallFn's inline buffer performs no heap allocation,
/// and firing or cancelling one is a direct indexed access instead of the
/// hash-map lookups the kernel used to pay per event (see
/// docs/performance.md and bench/perf_regression.cpp).
class Simulator {
 public:
  using Callback = SmallFn;

  /// Current simulated time in seconds.
  util::Seconds now() const { return now_; }

  /// Schedule `cb` to run `delay >= 0` seconds from now.
  EventId schedule_in(util::Seconds delay, Callback cb);

  /// Schedule `cb` at absolute time `at >= now()`.
  EventId schedule_at(util::Seconds at, Callback cb);

  /// Schedule `cb` at the current timestamp, behind every event already
  /// queued there (the FIFO tie-break orders it last). This is the
  /// coalescing hook batched consumers build on: N same-timestamp mutations
  /// schedule one zero-delay pass that observes all of them — see the
  /// fair-share recompute batching in net::Network.
  EventId schedule_now(Callback cb) { return schedule_in(0.0, std::move(cb)); }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled (safe to call either way).
  bool cancel(EventId id);

  /// Schedule `cb` every `period` seconds starting at now()+phase, until
  /// `cb` returns false or the simulation ends. The driver lives in an
  /// indexed table; each firing schedules a two-word `[this, index]` event,
  /// so a firing copies no closure.
  void schedule_periodic(util::Seconds phase, util::Seconds period,
                         SmallPredicate cb);

  /// Run until the event queue is empty, or until simulated time would pass
  /// `until` (default: run to completion). Returns the final time.
  util::Seconds run(util::Seconds until = -1.0);

  /// Drop all pending events and stop every periodic driver (used at
  /// teardown). Called from inside a periodic body, it spares that one
  /// driver, which continues if its body returns true.
  void clear();

  /// Number of events executed so far (for microbenchmarks / sanity checks).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of periodic drivers still running (armed or firing).
  std::size_t periodic_drivers() const {
    return drivers_.size() - free_drivers_.size();
  }

  /// Number of events currently pending. Exact: cancellation releases the
  /// slot immediately, so cancelled events never inflate the count (stale
  /// heap entries are skipped on pop and were already uncounted).
  std::size_t events_pending() const { return pending_; }

 private:
  struct Event {
    util::Seconds time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// One slab cell. `gen` is bumped every time the slot is released, so an
  /// EventId minted for an earlier occupancy can never match again; the heap
  /// may keep a stale Event for a cancelled id, which pop simply skips.
  struct Slot {
    SmallFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kOccupied;
  };
  static constexpr std::uint32_t kOccupied = 0xffffffffu;
  static constexpr std::uint32_t kFreeListEnd = 0xfffffffeu;

  /// One self-rescheduling periodic driver. Stopped drivers' cells are
  /// recycled through free_drivers_; the deque keeps a firing body in place
  /// when that body starts another driver.
  struct PeriodicDriver {
    SmallPredicate fn;
    util::Seconds period = 0.0;
  };
  static constexpr std::uint32_t kNoDriver = 0xffffffffu;

  std::uint32_t allocate_slot(Callback cb);
  void release_slot(std::uint32_t index);
  void fire_periodic(std::uint32_t index);
  void release_driver(std::uint32_t index);

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(slot) << 32) | gen};
  }

  util::Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kFreeListEnd;
  std::deque<PeriodicDriver> drivers_;
  std::vector<std::uint32_t> free_drivers_;
  std::uint32_t firing_driver_ = kNoDriver;
};

}  // namespace dfs::sim
