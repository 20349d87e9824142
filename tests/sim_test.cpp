#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dfs/sim/simulator.h"

namespace dfs::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(3.0, [&] { order.push_back(3); });
  sim.schedule_in(1.0, [&] { order.push_back(1); });
  sim.schedule_in(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(5.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesDuringCallbacks) {
  Simulator sim;
  double seen = -1;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, ZeroDelayRunsAtSameTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(1.0, [&] {
    sim.schedule_in(0.0, [&] {
      ran = true;
      EXPECT_DOUBLE_EQ(sim.now(), 1.0);
    });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_in(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_in(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(5.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PeriodicStopsWhenCallbackReturnsFalse) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(0.5, 1.0, [&] {
    ++count;
    return count < 4;
  });
  sim.run();
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
}

TEST(Simulator, PeriodicPhaseOffset) {
  Simulator sim;
  std::vector<double> fires;
  sim.schedule_periodic(2.0, 3.0, [&] {
    fires.push_back(sim.now());
    return fires.size() < 3;
  });
  sim.run();
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_DOUBLE_EQ(fires[0], 2.0);
  EXPECT_DOUBLE_EQ(fires[1], 5.0);
  EXPECT_DOUBLE_EQ(fires[2], 8.0);
}

TEST(Simulator, StoppedPeriodicDriverFreesItsEntry) {
  // A driver that returns false leaves the table; a later driver reuses
  // the entry, and both keep their own period and body.
  Simulator sim;
  std::vector<double> a_fires, b_fires;
  sim.schedule_periodic(1.0, 1.0, [&] {
    a_fires.push_back(sim.now());
    return a_fires.size() < 2;
  });
  EXPECT_EQ(sim.periodic_drivers(), 1u);
  sim.run();
  EXPECT_EQ(a_fires, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.periodic_drivers(), 0u);
  sim.schedule_periodic(0.5, 2.0, [&] {
    b_fires.push_back(sim.now());
    return b_fires.size() < 3;
  });
  EXPECT_EQ(sim.periodic_drivers(), 1u);
  sim.run();
  EXPECT_EQ(a_fires.size(), 2u);
  EXPECT_EQ(b_fires, (std::vector<double>{2.5, 4.5, 6.5}));
  EXPECT_EQ(sim.periodic_drivers(), 0u);
}

TEST(Simulator, PeriodicDriversInterleaveInSchedulingOrder) {
  // Same-instant firings of two drivers follow the FIFO tie-break of the
  // events that armed them, firing after firing.
  Simulator sim;
  std::vector<int> order;
  int fires[2] = {0, 0};
  for (int d = 0; d < 2; ++d) {
    sim.schedule_periodic(1.0, 1.0, [&order, &fires, d] {
      order.push_back(d + 1);
      return ++fires[d] < 3;
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(Simulator, ClearStopsPendingPeriodicDrivers) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_periodic(1.0, 1.0, [&] {
      ++fired;
      return true;
    });
  }
  sim.run(2.5);
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(sim.periodic_drivers(), 3u);
  sim.clear();
  EXPECT_EQ(sim.periodic_drivers(), 0u);
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 6);
  // The freed entries serve new drivers.
  sim.schedule_periodic(0.0, 1.0, [&] {
    ++fired;
    return false;
  });
  sim.run();
  EXPECT_EQ(fired, 7);
  EXPECT_EQ(sim.periodic_drivers(), 0u);
}

TEST(Simulator, ClearFromInsidePeriodicBodySparesThatDriver) {
  // The firing driver re-arms when its body returns true; every other
  // driver's pending firing is gone.
  Simulator sim;
  int self_fires = 0, other_fires = 0;
  sim.schedule_periodic(1.0, 1.0, [&] {
    ++other_fires;
    return true;
  });
  sim.schedule_periodic(1.5, 1.0, [&] {
    if (++self_fires == 1) sim.clear();
    return self_fires < 3;
  });
  sim.run();
  EXPECT_EQ(other_fires, 1);
  EXPECT_EQ(self_fires, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
  EXPECT_EQ(sim.periodic_drivers(), 0u);
}

TEST(Simulator, EventsExecutedCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(1.0, [&] { ran = true; });
  sim.clear();
  sim.run();
  EXPECT_FALSE(ran);
}

// --- slab kernel: exact pending counts and generation-tagged handles --------

TEST(Simulator, EventsPendingExactAcrossCancelAndRun) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sim.schedule_in(i + 1.0, [] {}));
  EXPECT_EQ(sim.events_pending(), 6u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[4]));
  // Exact count, not heap size: the two cancelled entries are gone.
  EXPECT_EQ(sim.events_pending(), 4u);
  sim.run(3.5);  // fires t=1 and t=3 (t=2 was cancelled)
  EXPECT_EQ(sim.events_pending(), 2u);
  EXPECT_EQ(sim.events_executed(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(Simulator, EventsPendingZeroAfterClear) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule_in(1.0, [] {});
  sim.clear();
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, StaleHandleDoesNotCancelReusedSlot) {
  Simulator sim;
  const EventId a = sim.schedule_in(1.0, [] {});
  ASSERT_TRUE(sim.cancel(a));
  // b reuses a's freed slot under a bumped generation; the stale handle to
  // a must not reach it.
  bool b_ran = false;
  const EventId b = sim.schedule_in(2.0, [&] { b_ran = true; });
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(sim.cancel(b));          // already fired
  EXPECT_FALSE(sim.cancel(EventId{}));  // null handle
}

TEST(Simulator, SlotReuseKeepsFifoOrderAmongSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_in(5.0, [&] { order.push_back(0); });
  sim.schedule_in(5.0, [&] { order.push_back(1); });
  sim.cancel(a);
  // Reuses a's slot but must still fire after event 1 (later seq).
  sim.schedule_in(5.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, LargeCallbackFallsBackToHeap) {
  // 256-byte capture: beyond SmallFn's inline buffer, exercising the heap
  // storage path.
  Simulator sim;
  std::array<double, 32> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i);
  }
  double sum = 0.0;
  sim.schedule_in(1.0, [payload, &sum] {
    for (const double v : payload) sum += v;
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 496.0);
}

TEST(Simulator, ManyEventsStressOrder) {
  Simulator sim;
  double last = -1.0;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_in((i * 7919) % 1000, [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.events_executed(), 10000u);
}

}  // namespace
}  // namespace dfs::sim
