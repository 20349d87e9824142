#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dfs/cluster/simulation.h"
#include "dfs/core/locality_first.h"
#include "dfs/core/scheduler.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/mapreduce/master.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/storage/layout.h"

namespace dfs::mapreduce {
namespace {

/// The cluster_test online harness with the compute-failure fault layer
/// switched on. Tests tweak cfg.fault and then call build(); kill_node()
/// takes a node's storage *and* its TaskTracker, the way LifecycleDriver
/// does when compute_failures is set.
struct FaultHarness {
  ClusterConfig cfg;
  JobInput job;
  util::Rng rng{99};
  sim::Simulator sim;
  storage::FailureScenario failure;
  core::LocalityFirstScheduler lf;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Master> master;

  FaultHarness() {
    cfg.topology = net::Topology(4, 5);
    cfg.links.rack_up = 1000.0;  // bytes/sec; block = 1000 bytes -> 1 s
    cfg.links.rack_down = 1000.0;
    cfg.map_slots_per_node = 2;
    cfg.reduce_slots_per_node = 1;
    cfg.block_size = 1000.0;
    cfg.heartbeat_interval = 1.0;
    cfg.fault.compute_failures = true;

    util::Rng placement(7);
    job.spec.map_time = {5.0, 0.5};
    job.spec.reduce_time = {4.0, 0.4};
    job.spec.num_reducers = 5;
    job.spec.shuffle_ratio = 0.01;
    job.layout = std::make_shared<storage::StorageLayout>(
        storage::random_rack_constrained_layout(120, 8, 6, cfg.topology,
                                                placement));
    job.code = ec::make_reed_solomon(8, 6);
  }

  /// Call after the test has finished tweaking cfg.fault.
  void build() {
    net = std::make_unique<net::Network>(sim, cfg.topology, cfg.links,
                                         cfg.contention);
    master = std::make_unique<Master>(sim, *net, cfg, failure, lf, rng);
  }

  void kill_node(NodeId n) {
    failure.fail(n);
    master->on_node_failed(n);
    master->on_compute_failed(n);
  }
};

// --- guard rails ---------------------------------------------------------------

TEST(FaultTolerance, ComputeFailureRequiresTheFaultLayer) {
  FaultHarness h;
  h.cfg.fault.compute_failures = false;
  h.build();
  EXPECT_THROW(h.master->on_compute_failed(3), std::logic_error);
}

// --- slave death mid-job -------------------------------------------------------

TEST(FaultTolerance, SlaveDeathIsDetectedByHeartbeatExpiryAndJobCompletes) {
  FaultHarness h;
  h.build();
  h.master->submit(h.job);
  const util::Seconds fail_at = 2.5;
  h.sim.schedule_at(fail_at, [&h] { h.kill_node(3); });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);
  EXPECT_GE(r.jobs[0].finish_time, 0.0);
  EXPECT_FALSE(r.data_loss);

  // The node had attempts in flight at the failure; all of them were killed
  // and their tasks re-executed elsewhere, so the job still finished.
  EXPECT_GT(r.count_map_attempts(AttemptOutcome::kKilled), 0);
  for (const auto& t : r.map_tasks) {
    if (t.outcome == AttemptOutcome::kKilled) {
      EXPECT_EQ(t.exec_node, 3);
    }
    if (t.assign_time > fail_at) {
      EXPECT_NE(t.exec_node, 3) << t.id;
    }
  }

  // Death is noticed only when the heartbeat goes stale: the detection
  // lands expiry_multiplier intervals after the last beat, which was at
  // most one interval before the failure.
  ASSERT_EQ(r.detections.size(), 1u);
  const auto& d = r.detections.front();
  EXPECT_EQ(d.node, 3);
  EXPECT_DOUBLE_EQ(d.fail_time, fail_at);
  const double expiry =
      h.cfg.fault.expiry_multiplier * h.cfg.heartbeat_interval;
  EXPECT_GE(d.latency(), expiry - h.cfg.heartbeat_interval);
  EXPECT_LE(d.latency(), expiry);
  EXPECT_DOUBLE_EQ(r.mean_detection_latency(), d.latency());
}

// --- lost map outputs ----------------------------------------------------------

TEST(FaultTolerance, LostMapOutputsAreReExecutedBeforeTheShuffleCompletes) {
  FaultHarness h;
  // More reducers than reduce slots (20): some reducers are still waiting
  // for a slot when the node dies, so every map output on it is still
  // needed and the lost ones must be recomputed.
  h.job.spec.num_reducers = 25;
  h.build();
  h.master->submit(h.job);
  const util::Seconds fail_at = 12.0;  // after the first map wave completed
  h.sim.schedule_at(fail_at, [&h] { h.kill_node(3); });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);

  // Maps that had completed on the dead node lost their outputs and were
  // re-executed: the reverted record is flagged, and a fresh winner for the
  // same map index later succeeded on a live node.
  int reverted = 0;
  for (const auto& t : r.map_tasks) {
    if (!t.output_lost) continue;
    ++reverted;
    EXPECT_EQ(t.exec_node, 3);
    const bool reexecuted = std::any_of(
        r.map_tasks.begin(), r.map_tasks.end(), [&t](const auto& u) {
          return u.map_index == t.map_index && !u.output_lost && u.winner &&
                 u.outcome == AttemptOutcome::kSuccess && u.exec_node != 3 &&
                 u.finish_time > t.finish_time;
        });
    EXPECT_TRUE(reexecuted) << "map " << t.map_index;
  }
  EXPECT_GT(reverted, 0);
}

// --- attempt exhaustion --------------------------------------------------------

TEST(FaultTolerance, MaxAttemptsAbortsJobsWithoutWedgingTheFifoQueue) {
  FaultHarness h;
  h.cfg.fault.attempt_failure_prob = 1.0;  // every attempt crashes mid-run
  h.cfg.fault.max_attempts = 2;
  h.cfg.fault.retry_backoff = 0.5;
  h.cfg.fault.blacklist_threshold = 0;  // isolate the retry/abort path
  h.build();
  h.master->submit(h.job);
  JobInput second = h.job;
  second.spec.id = 1;
  h.master->submit(second);
  h.master->start();
  h.sim.run();

  // Both jobs abort (nothing can ever finish at prob = 1), and the abort
  // unblocks FIFO: the second job still activates, runs, and aborts too
  // instead of waiting forever behind the first.
  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_EQ(r.jobs_failed(), 2);
  for (const auto& j : r.jobs) {
    EXPECT_TRUE(j.failed);
    EXPECT_GE(j.finish_time, 0.0);
  }
  EXPECT_GT(r.count_map_attempts(AttemptOutcome::kFailed), 0);
  // No task ever got more than max_attempts tries.
  for (const auto& t : r.map_tasks) EXPECT_LT(t.attempt, 2) << t.id;
}

// --- blacklisting --------------------------------------------------------------

TEST(FaultTolerance, FlakySlaveIsBlacklistedAndStopsReceivingWork) {
  FaultHarness h;
  h.cfg.fault.attempt_failure_prob = 1.0;
  h.cfg.fault.flaky_nodes = {3};  // only node 3 misbehaves
  h.cfg.fault.blacklist_threshold = 2;
  h.cfg.fault.blacklist_duration = 300.0;
  h.cfg.fault.max_attempts = 6;
  h.cfg.fault.retry_backoff = 0.5;
  h.build();
  h.master->set_admission_open(true);
  h.master->submit(h.job);
  // A second job arrives after the blacklist window has expired: the slave
  // must be a first-class worker again by then.
  JobInput second = h.job;
  second.spec.id = 1;
  second.spec.submit_time = 400.0;
  h.sim.schedule_at(second.spec.submit_time,
                    [&h, second] { h.master->submit(second); });
  h.sim.schedule_at(401.0, [&h] { h.master->finish_admission(); });
  bool blacklisted_mid_run = false;
  h.sim.schedule_at(15.0, [&] {
    blacklisted_mid_run = h.master->blacklisted(3);
  });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_FALSE(r.jobs[0].failed);
  EXPECT_FALSE(r.jobs[1].failed);
  EXPECT_TRUE(blacklisted_mid_run);

  // Every injected failure happened on the flaky node; after the
  // threshold-th one the first job never put another attempt there (it
  // ends well inside the blacklist window).
  std::vector<double> failure_times;
  for (const auto& t : r.map_tasks) {
    if (t.outcome == AttemptOutcome::kFailed) {
      EXPECT_EQ(t.exec_node, 3);
      if (t.job == 0) failure_times.push_back(t.finish_time);
    }
  }
  ASSERT_GE(failure_times.size(), 2u);
  std::sort(failure_times.begin(), failure_times.end());
  const double blacklist_time = failure_times[1];
  for (const auto& t : r.map_tasks) {
    if (t.job == 0 && t.exec_node == 3) {
      EXPECT_LE(t.assign_time, blacklist_time) << t.id;
    }
  }
  for (const auto& t : r.reduce_tasks) {
    if (t.job == 0 && t.exec_node == 3) {
      EXPECT_LE(t.assign_time, blacklist_time) << t.id;
    }
  }

  // Unblacklisted after 300 s: the second job uses node 3 again, its
  // attempts there fail again, and the slave is re-blacklisted — the
  // time-based window resets the failure count rather than exiling the
  // node forever.
  const bool reused = std::any_of(
      r.map_tasks.begin(), r.map_tasks.end(),
      [](const auto& t) { return t.job == 1 && t.exec_node == 3; });
  EXPECT_TRUE(reused);
  EXPECT_EQ(r.blacklist_events, 2);
}

// --- hedged reads racing node death --------------------------------------------

TEST(FaultTolerance, HedgedDegradedReadsSurviveHelperDeathMidFlight) {
  // Node 2's storage is down from the start, so its blocks run as supervised
  // degraded reads; node 7 then dies mid-run while hedged fetches are in
  // flight. Every read must resolve — fetches from the dead helper fall back
  // to alternative sources — and the job completes without data loss.
  FaultHarness h;
  h.cfg.hedge.extra_sources = 2;
  h.cfg.fetch.timeout = 30.0;
  h.cfg.straggler.service_mean = 0.2;  // jitter keeps fetches in flight
  h.failure.fail(2);
  h.build();
  h.master->submit(h.job);
  h.sim.schedule_at(2.0, [&h] { h.kill_node(7); });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);
  EXPECT_FALSE(r.data_loss);
  EXPECT_GT(r.hedge.reads_started, 0u);
  // Every supervised read resolved one way: completed, declared
  // unrecoverable, or cancelled with its doomed attempt.
  EXPECT_EQ(r.hedge.reads_started, r.hedge.reads_completed +
                                       r.hedge.reads_failed +
                                       r.hedge.reads_cancelled);
  EXPECT_EQ(r.hedge.reads_failed, 0u);
  EXPECT_FALSE(r.degraded_fetches.empty());
  // No fetch was ever planned against node 2 — dead before any read began.
  // (Node 7 may legitimately appear as a source of fetches that completed
  // before its death delivered the bytes.)
  for (const auto& f : r.degraded_fetches) EXPECT_NE(f.src, 2);
}

// --- unhedged degraded reads losing a helper mid-flight -------------------------

/// A degraded read of the probe run, one of its cross-rack helpers, and a
/// moment at which that helper's fetch is still in flight.
struct InflightRead {
  int record = -1;
  NodeId helper = -1;
  util::Seconds kill_at = 0.0;
};

/// Runs `cfg` with node 2's storage down from the start and picks the
/// longest degraded read with a cross-rack helper. A cross-rack block fetch
/// takes at least 1 s on the harness links, so 0.5 s after launch that
/// helper is still sending. Same-seed runs are identical up to the first
/// divergent event, so a follow-up run that kills `helper` at `kill_at`
/// catches this read mid-flight.
InflightRead probe_inflight_read(const ClusterConfig& cfg) {
  FaultHarness h;
  h.cfg = cfg;
  h.failure.fail(2);
  h.build();
  h.master->submit(h.job);
  h.master->start();
  h.sim.run();
  const RunResult r = h.master->take_result();
  InflightRead best;
  util::Seconds longest = 0.0;
  for (std::size_t i = 0; i < r.map_tasks.size(); ++i) {
    const MapTaskRecord& rec = r.map_tasks[i];
    if (rec.kind != MapTaskKind::kDegraded || rec.unrecoverable) continue;
    if (rec.degraded_read_time() <= longest) continue;
    for (const auto& src : rec.sources) {
      if (cfg.topology.same_rack(src.node, rec.exec_node)) continue;
      longest = rec.degraded_read_time();
      best.record = static_cast<int>(i);
      best.helper = src.node;
      best.kill_at = rec.assign_time + 0.5;
      break;
    }
  }
  return best;
}

bool sources_use(const MapTaskRecord& rec, NodeId node) {
  return std::any_of(rec.sources.begin(), rec.sources.end(),
                     [node](const storage::DegradedSource& src) {
                       return src.node == node;
                     });
}

TEST(FaultTolerance, UnhedgedDegradedReadRestartsWhenHelperDiesMidFlight) {
  // Hedging off, fault layer on: the fault layer restarts a degraded read
  // that loses a helper from a fresh plan over the surviving stripe blocks.
  FaultHarness h;
  const InflightRead target = probe_inflight_read(h.cfg);
  ASSERT_GE(target.record, 0);
  h.failure.fail(2);
  h.build();
  h.master->submit(h.job);
  h.sim.schedule_at(target.kill_at, [&h, &target] {
    h.kill_node(target.helper);
  });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);
  EXPECT_FALSE(r.data_loss);
  const MapTaskRecord& rec =
      r.map_tasks[static_cast<std::size_t>(target.record)];
  ASSERT_EQ(rec.kind, MapTaskKind::kDegraded);
  EXPECT_TRUE(rec.winner);
  EXPECT_FALSE(rec.sources.empty());
  EXPECT_FALSE(sources_use(rec, target.helper));
  EXPECT_GT(rec.fetch_done_time, target.kill_at);
  // Unhedged reads report no supervisor records or stats.
  EXPECT_EQ(r.hedge.reads_started, 0u);
  EXPECT_TRUE(r.degraded_fetches.empty());
}

TEST(FaultTolerance, UnhedgedDegradedReadKeepsItsSourcesWithFaultsOff) {
  // Fault layer off: a storage-only death does not touch reads in flight,
  // so the read keeps streaming from the dead helper (the pinned model).
  FaultHarness h;
  h.cfg.fault.compute_failures = false;
  const InflightRead target = probe_inflight_read(h.cfg);
  ASSERT_GE(target.record, 0);
  h.failure.fail(2);
  h.build();
  h.master->submit(h.job);
  h.sim.schedule_at(target.kill_at, [&h, &target] {
    h.failure.fail(target.helper);
    h.master->on_node_failed(target.helper);
  });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.data_loss);
  const MapTaskRecord& rec =
      r.map_tasks[static_cast<std::size_t>(target.record)];
  ASSERT_EQ(rec.kind, MapTaskKind::kDegraded);
  EXPECT_TRUE(rec.winner);
  EXPECT_TRUE(sources_use(rec, target.helper));
  EXPECT_GT(rec.fetch_done_time, target.kill_at);
  EXPECT_EQ(r.hedge.reads_started, 0u);
  EXPECT_TRUE(r.degraded_fetches.empty());
}

// --- determinism ---------------------------------------------------------------

TEST(FaultTolerance, SameSeedFaultInjectionRunsAreByteIdentical) {
  cluster::ClusterOptions opts;
  opts.horizon = 1800.0;
  opts.warmup = 300.0;
  opts.lifecycle.node_mttf_hours = 1.0;
  opts.config.fault.compute_failures = true;
  opts.config.fault.attempt_failure_prob = 0.02;
  opts.config.fault.max_attempts = 6;
  const auto scheduler = core::make_scheduler("BDF");

  std::ostringstream jsonl1, jsonl2, csv1, csv2;
  {
    cluster::ClusterSimulation simulation(opts, *scheduler, 5);
    const auto result = simulation.run();
    cluster::write_cluster_jsonl(jsonl1, result);
    write_attempt_csv(csv1, result.run);
  }
  {
    cluster::ClusterSimulation simulation(opts, *scheduler, 5);
    const auto result = simulation.run();
    cluster::write_cluster_jsonl(jsonl2, result);
    write_attempt_csv(csv2, result.run);
  }
  ASSERT_FALSE(jsonl1.str().empty());
  EXPECT_EQ(jsonl1.str(), jsonl2.str());
  EXPECT_EQ(csv1.str(), csv2.str());
}


// The fault supervisor drops a dead helper's in-flight partition fetches in
// one queue-order pass over a tombstoned slab. The cancellation order is
// observable (each cancel frees link capacity and can reschedule flows), so
// it must match the original erase-loop order — ascending launch order —
// regardless of how many tombstones earlier removals left behind, and
// survive slab compaction.
TEST(FaultTolerance, InflightKillSweepCancelsInLaunchOrder) {
  ReduceTaskState rt;
  // Launch fetches from two sources, interleaved: even map indices from the
  // doomed node 3, odd ones from the healthy node 5. Flow ids are 1-based
  // (flow 0 is the tombstone marker and never allocated by the network).
  for (int i = 0; i < 24; ++i) {
    rt.inflight_add(InflightFetch{static_cast<net::FlowId>(i + 1), i,
                                  i % 2 == 0 ? NodeId{3} : NodeId{5}});
  }
  // Individual completions punch tombstones ahead of the sweep; removing 16
  // of 24 crosses the live*2 <= size compaction threshold, so the sweep
  // below also runs over a freshly compacted slab.
  for (int i = 0; i < 16; ++i) rt.inflight_remove(i);
  ASSERT_EQ(rt.inflight_count(), 8);

  std::vector<net::FlowId> cancelled;
  rt.inflight_remove_if(
      [](const InflightFetch& f) { return f.src == NodeId{3}; },
      [&](const InflightFetch& f) { cancelled.push_back(f.flow); });
  EXPECT_EQ(cancelled, (std::vector<net::FlowId>{17, 19, 21, 23}));
  EXPECT_EQ(rt.inflight_count(), 4);

  // The survivors still iterate in launch order and stay individually
  // addressable by map index.
  std::vector<net::FlowId> survivors;
  rt.inflight_for_each(
      [&](const InflightFetch& f) { survivors.push_back(f.flow); });
  EXPECT_EQ(survivors, (std::vector<net::FlowId>{18, 20, 22, 24}));
  rt.inflight_remove(19);
  EXPECT_EQ(rt.inflight_count(), 3);
  rt.inflight_clear();
  EXPECT_EQ(rt.inflight_count(), 0);
  rt.inflight_for_each([](const InflightFetch&) { FAIL(); });
}

}  // namespace
}  // namespace dfs::mapreduce
