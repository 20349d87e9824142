#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "dfs/cluster/simulation.h"
#include "dfs/core/locality_first.h"
#include "dfs/core/scheduler.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/ec/registry.h"
#include "dfs/mapreduce/master.h"
#include "dfs/storage/layout.h"

namespace dfs::cluster {
namespace {

using mapreduce::MapTaskKind;

/// A small online cluster under direct control: the tests drive failure and
/// repair at exact times instead of drawing them from MTTF clocks.
struct OnlineHarness {
  mapreduce::ClusterConfig cfg;
  mapreduce::JobInput job;
  util::Rng rng{99};
  sim::Simulator sim;
  storage::FailureScenario failure;
  core::LocalityFirstScheduler lf;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<mapreduce::Master> master;

  OnlineHarness() {
    cfg.topology = net::Topology(4, 5);
    cfg.links.rack_up = 1000.0;  // bytes/sec; block = 1000 bytes -> 1 s
    cfg.links.rack_down = 1000.0;
    cfg.map_slots_per_node = 2;
    cfg.reduce_slots_per_node = 1;
    cfg.block_size = 1000.0;
    cfg.heartbeat_interval = 1.0;

    util::Rng placement(7);
    job.spec.map_time = {5.0, 0.5};
    job.spec.reduce_time = {4.0, 0.4};
    job.spec.num_reducers = 5;
    job.spec.shuffle_ratio = 0.01;
    job.layout = std::make_shared<storage::StorageLayout>(
        storage::random_rack_constrained_layout(120, 8, 6, cfg.topology,
                                                placement));
    job.code = ec::make_reed_solomon(8, 6);

    net = std::make_unique<net::Network>(sim, cfg.topology, cfg.links,
                                         cfg.contention);
    master = std::make_unique<mapreduce::Master>(sim, *net, cfg, failure, lf,
                                                 rng);
  }
};

// --- mid-run failure injection ------------------------------------------------

TEST(Cluster, MidRunFailureReclassifiesPendingTasksAsDegraded) {
  OnlineHarness h;
  h.master->submit(h.job);
  const util::Seconds fail_at = 2.5;
  h.sim.schedule_at(fail_at, [&h] {
    h.failure.fail(3);
    h.master->on_node_failed(3);
  });
  h.master->start();
  h.sim.run();
  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();

  // The cluster was healthy at submission, yet tasks ran degraded: only the
  // mid-run reclassification can have produced them.
  EXPECT_GT(r.count_map_tasks(MapTaskKind::kDegraded), 0);
  EXPECT_FALSE(r.data_loss);
  // The failed node stops receiving work; tasks assigned to it earlier are
  // allowed to finish (the failure takes its storage, not its progress).
  for (const auto& t : r.map_tasks) {
    if (t.assign_time > fail_at) {
      EXPECT_NE(t.exec_node, 3) << t.id;
    }
  }
  for (const auto& t : r.map_tasks) {
    if (t.kind == MapTaskKind::kDegraded) {
      for (const auto& src : t.sources) EXPECT_NE(src.node, 3);
    }
  }
}

// --- repair completion restores locality --------------------------------------

TEST(Cluster, RepairRestoresFullLocality) {
  OnlineHarness h;
  h.failure.fail(3);
  h.master->on_node_failed(3);
  h.master->set_admission_open(true);
  h.master->submit(h.job);  // activates at t=0, while node 3 is down

  h.sim.schedule_at(2.5, [&h] {
    h.failure.restore(3);
    h.master->on_node_repaired(3);
  });
  mapreduce::JobInput job2 = h.job;
  job2.spec.id = 1;
  job2.spec.submit_time = 40.0;  // healthy cluster by then
  h.sim.schedule_at(job2.spec.submit_time,
                    [&h, job2] { h.master->submit(job2); });
  h.sim.schedule_at(41.0, [&h] { h.master->finish_admission(); });

  h.master->start();
  h.sim.run();
  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 2u);

  // Job 0's tasks on node 3 were degraded at activation; the repair at
  // t=2.5 re-promoted every one still pending, and locality-first had no
  // reason to launch any of them degraded that early.
  EXPECT_EQ(r.jobs[0].degraded_tasks, 0);
  // Job 1 never saw a failure, and node 3 is a first-class slave again:
  // it executes map tasks and serves reads.
  EXPECT_EQ(r.jobs[1].degraded_tasks, 0);
  const bool node3_worked =
      std::any_of(r.map_tasks.begin(), r.map_tasks.end(), [](const auto& t) {
        return t.job == 1 && t.exec_node == 3;
      });
  EXPECT_TRUE(node3_worked);
  EXPECT_EQ(r.count_map_tasks(MapTaskKind::kDegraded), 0);
}

TEST(Cluster, RepairReclassifiesReplicatedLayouts) {
  // The k == 1 branch of reclassify_after_repair: with a replicated layout
  // the repaired node holds whole copies, not stripe shards, so membership
  // is decided by scanning the stripe's replica list.
  const auto make_job = [](const OnlineHarness& h) {
    mapreduce::JobInput job = h.job;
    util::Rng placement(11);
    job.layout = std::make_shared<storage::StorageLayout>(
        storage::replicated_layout(60, 2, h.cfg.topology, placement));
    job.code = ec::make_code_from_spec("rep:2");
    return job;
  };

  // Fail both replica holders of stripe 0 before the job activates, then
  // bring one back before any task launches: every pending task regains a
  // readable copy, so nothing runs degraded and nothing is lost.
  OnlineHarness h;
  const mapreduce::JobInput job = make_job(h);
  const auto a = job.layout->node_of(storage::BlockId{0, 0});
  const auto b = job.layout->node_of(storage::BlockId{0, 1});
  ASSERT_NE(a, b);
  h.failure.fail(a);
  h.master->on_node_failed(a);
  h.failure.fail(b);
  h.master->on_node_failed(b);
  h.master->set_admission_open(true);
  h.master->submit(job);
  h.sim.schedule_at(0.5, [&h, a] {
    h.failure.restore(a);
    h.master->on_node_repaired(a);
  });
  h.sim.schedule_at(1.5, [&h] { h.master->finish_admission(); });
  h.master->start();
  h.sim.run();
  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  EXPECT_FALSE(r.data_loss);
  EXPECT_EQ(r.count_map_tasks(MapTaskKind::kDegraded), 0);

  // Control: without the repair, stripe 0 has no readable copy at all and a
  // 2-way replicated block cannot be rebuilt from survivors.
  OnlineHarness h2;
  const mapreduce::JobInput job2 = make_job(h2);
  h2.failure.fail(a);
  h2.master->on_node_failed(a);
  h2.failure.fail(b);
  h2.master->on_node_failed(b);
  h2.master->set_admission_open(true);
  h2.master->submit(job2);
  h2.sim.schedule_at(1.5, [&h2] { h2.master->finish_admission(); });
  h2.master->start();
  h2.sim.run();
  ASSERT_TRUE(h2.master->all_jobs_done());
  EXPECT_TRUE(h2.master->take_result().data_loss);
}

// --- the full lifecycle simulation --------------------------------------------

ClusterOptions fast_options() {
  ClusterOptions opts;
  opts.horizon = 1800.0;
  opts.warmup = 300.0;
  opts.lifecycle.node_mttf_hours = 1.0;  // several failures in half an hour
  return opts;
}

TEST(Cluster, LifecycleInjectsFailuresAndRepairsThemAll) {
  const auto scheduler = core::make_scheduler("BDF");
  ClusterSimulation simulation(fast_options(), *scheduler, 11);
  const ClusterResult result = simulation.run();

  EXPECT_GT(result.summary.failures_injected, 0);
  EXPECT_GT(result.summary.blocks_repaired, 0);
  EXPECT_EQ(result.summary.blocks_unrecoverable, 0);
  // Every failure happened mid-run and was fully repaired: the cluster ends
  // with all nodes healthy.
  for (const auto& f : result.failures) {
    EXPECT_GE(f.fail_time, 0.0);
    EXPECT_GE(f.repair_start, f.fail_time);
    EXPECT_GE(f.restore_time, f.repair_start);
  }
  EXPECT_TRUE(simulation.failure().failed_nodes().empty());
  EXPECT_EQ(simulation.lifecycle().failed_node_count(), 0);
  EXPECT_EQ(simulation.lifecycle().repair_backlog(), 0);
  // The open-loop stream kept submitting while failures were in flight, and
  // everything drained.
  EXPECT_GT(result.summary.jobs_measured, 0);
  EXPECT_EQ(result.summary.jobs_submitted, result.summary.jobs_completed);
  EXPECT_GT(result.summary.degraded_task_fraction, 0.0);
}

TEST(Cluster, RackFailuresFireAndStayRecoverable) {
  ClusterOptions opts = fast_options();
  opts.lifecycle.rack_failure_fraction = 1.0;  // every event takes a rack
  const auto scheduler = core::make_scheduler("BDF");
  ClusterSimulation simulation(opts, *scheduler, 21);
  const ClusterResult result = simulation.run();
  EXPECT_GT(result.summary.rack_failures, 0);
  // The §III placement rule caps one rack's share of a stripe at n - k, so
  // a lone rack failure never loses data.
  EXPECT_EQ(result.summary.blocks_unrecoverable, 0);
  EXPECT_TRUE(simulation.failure().failed_nodes().empty());
}

TEST(Cluster, DegradedFirstTailLatencyNoWorseThanLocalityFirst) {
  const auto lf = core::make_scheduler("LF");
  const auto df = core::make_scheduler("BDF");
  ClusterSimulation lf_sim(ClusterOptions{}, *lf, 1);
  ClusterSimulation df_sim(ClusterOptions{}, *df, 1);
  const double lf_p99 = lf_sim.run().summary.latency_p99;
  const double df_p99 = df_sim.run().summary.latency_p99;
  EXPECT_GT(lf_p99, 0.0);
  EXPECT_GT(df_p99, 0.0);
  EXPECT_LE(df_p99, lf_p99);
}

// --- hedged reads racing repair -------------------------------------------------

TEST(Cluster, RepairCompletionRacesInFlightHedgedReads) {
  // Node 3 is down at submission, so its tasks start as supervised hedged
  // reads; the repair lands at t=2.5 while fetches are still in flight.
  // Restoring the node must not wedge or corrupt the outstanding reads:
  // they run to completion against the sources they already hold.
  OnlineHarness h;
  h.cfg.hedge.extra_sources = 1;
  h.cfg.straggler.service_mean = 0.5;  // keeps fetches in flight at t=2.5
  // The harness built its Master before the hedging knobs were set: rebuild
  // it — and schedule degraded-first, so the hedged reads are guaranteed to
  // be in flight when the repair lands (locality-first would defer them
  // until after the restore).
  const auto bdf = core::make_scheduler("BDF");
  h.net = std::make_unique<net::Network>(h.sim, h.cfg.topology, h.cfg.links,
                                         h.cfg.contention);
  h.master = std::make_unique<mapreduce::Master>(h.sim, *h.net, h.cfg,
                                                 h.failure, *bdf, h.rng);

  h.failure.fail(3);
  h.master->on_node_failed(3);
  h.master->submit(h.job);
  h.sim.schedule_at(2.5, [&h] {
    h.failure.restore(3);
    h.master->on_node_repaired(3);
  });
  h.master->start();
  h.sim.run();

  ASSERT_TRUE(h.master->all_jobs_done());
  const auto r = h.master->take_result();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);
  EXPECT_FALSE(r.data_loss);
  // Hedged reads actually ran before the repair, and every one resolved.
  EXPECT_GT(r.hedge.reads_started, 0u);
  EXPECT_EQ(r.hedge.reads_started, r.hedge.reads_completed +
                                       r.hedge.reads_failed +
                                       r.hedge.reads_cancelled);
  EXPECT_EQ(r.hedge.reads_failed, 0u);
}

TEST(Cluster, HedgedLifecycleRunsAreByteIdenticalJsonl) {
  // Full lifecycle determinism with the whole robustness layer on: hedging,
  // timeouts, straggler jitter (heavy-tailed), and transient failures.
  ClusterOptions opts = fast_options();
  opts.config.hedge.extra_sources = 1;
  opts.config.fetch.timeout = 120.0;
  opts.config.straggler.fraction = 0.1;
  opts.config.straggler.slowdown = 4.0;
  opts.config.straggler.service_mean = 0.5;
  opts.config.straggler.pareto_alpha = 1.5;
  opts.config.straggler.fail_prob = 0.05;
  const auto scheduler = core::make_scheduler("BDF");
  std::ostringstream first, second;
  {
    ClusterSimulation simulation(opts, *scheduler, 5);
    write_cluster_jsonl(first, simulation.run());
  }
  {
    ClusterSimulation simulation(opts, *scheduler, 5);
    write_cluster_jsonl(second, simulation.run());
  }
  ASSERT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
  // The hedging record is present and carries the tail percentiles.
  EXPECT_NE(first.str().find("\"type\":\"hedging\""), std::string::npos);
  EXPECT_NE(first.str().find("degraded_read_p999"), std::string::npos);
  EXPECT_NE(first.str().find("latency_samples"), std::string::npos);
}

TEST(Cluster, SameSeedProducesByteIdenticalJsonl) {
  const auto scheduler = core::make_scheduler("BDF");
  std::ostringstream first, second;
  {
    ClusterSimulation simulation(fast_options(), *scheduler, 5);
    write_cluster_jsonl(first, simulation.run());
  }
  {
    ClusterSimulation simulation(fast_options(), *scheduler, 5);
    write_cluster_jsonl(second, simulation.run());
  }
  ASSERT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

// --- exporters ----------------------------------------------------------------

TEST(Cluster, JsonlIsOneObjectPerLine) {
  const auto scheduler = core::make_scheduler("BDF");
  ClusterSimulation simulation(fast_options(), *scheduler, 3);
  std::ostringstream os;
  write_cluster_jsonl(os, simulation.run());
  std::istringstream in(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"type\":"), std::string::npos) << line;
    ++lines;
  }
  EXPECT_GT(lines, 1);
  EXPECT_EQ(os.str().substr(0, 17), "{\"type\":\"summary\"");
}

TEST(Cluster, TimelineCsvHeaderIsStable) {
  std::ostringstream os;
  write_timeline_csv(os, ClusterResult{});
  EXPECT_EQ(os.str(),
            "time,jobs_in_system,failed_nodes,repair_backlog,"
            "rack_down_utilization\n");
}

// --- steady-state summary -----------------------------------------------------

TEST(Cluster, SummaryMeasuresOnlyJobsSubmittedInsideTheWindow) {
  mapreduce::RunResult run;
  const auto add_job = [&run](int id, double submit, double finish) {
    mapreduce::JobMetrics j;
    j.id = id;
    j.submit_time = submit;
    j.first_map_launch = submit;
    j.finish_time = finish;
    j.local_tasks = 8;
    j.degraded_tasks = 2;
    run.jobs.push_back(j);
  };
  add_job(0, 10.0, 50.0);     // before warm-up: excluded
  add_job(1, 150.0, 160.0);   // latency 10
  add_job(2, 200.0, 220.0);   // latency 20
  add_job(3, 250.0, 280.0);   // latency 30
  add_job(4, 600.0, 700.0);   // after the horizon: excluded
  add_job(5, 300.0, -1.0);    // never finished: excluded

  const SteadyStateSummary s =
      summarize_steady_state(run, {}, {}, /*warmup=*/100.0, /*horizon=*/500.0);
  EXPECT_EQ(s.jobs_submitted, 6);
  EXPECT_EQ(s.jobs_completed, 5);
  EXPECT_EQ(s.jobs_measured, 3);
  EXPECT_DOUBLE_EQ(s.latency_p50, 20.0);
  EXPECT_DOUBLE_EQ(s.latency_mean, 20.0);
  EXPECT_DOUBLE_EQ(s.degraded_task_fraction, 0.2);
}

// --- arrival models -----------------------------------------------------------

TEST(Cluster, ArrivalModelNamesRoundTrip) {
  for (const auto model : {ArrivalModel::kPoisson, ArrivalModel::kPareto,
                           ArrivalModel::kDiurnal}) {
    EXPECT_EQ(parse_arrival_model(to_string(model)), model);
  }
  EXPECT_THROW(parse_arrival_model("weibull"), std::invalid_argument);
}

TEST(Cluster, ArrivalOptionsAreValidated) {
  OnlineHarness h;
  ArrivalOptions bad;
  bad.mean_interarrival = 0.0;
  EXPECT_THROW(ArrivalProcess(h.sim, *h.master, h.cfg.topology, bad,
                              util::Rng(1)),
               std::invalid_argument);
  bad = ArrivalOptions{};
  bad.pareto_alpha = 1.0;
  EXPECT_THROW(ArrivalProcess(h.sim, *h.master, h.cfg.topology, bad,
                              util::Rng(1)),
               std::invalid_argument);
  bad = ArrivalOptions{};
  bad.diurnal_amplitude = 1.0;
  EXPECT_THROW(ArrivalProcess(h.sim, *h.master, h.cfg.topology, bad,
                              util::Rng(1)),
               std::invalid_argument);
  bad = ArrivalOptions{};
  bad.tenants.push_back({.arrival_share = 0.0});
  EXPECT_THROW(ArrivalProcess(h.sim, *h.master, h.cfg.topology, bad,
                              util::Rng(1)),
               std::invalid_argument);
  bad = ArrivalOptions{};
  bad.tenants.push_back({.arrival_share = 1.0, .job_scale = -0.5});
  EXPECT_THROW(ArrivalProcess(h.sim, *h.master, h.cfg.topology, bad,
                              util::Rng(1)),
               std::invalid_argument);
}

// --- multi-tenant streams and admission ---------------------------------------

/// Small multi-tenant stream: tenant 0 submits 3x as often; tenant 1's jobs
/// are a quarter of the template size.
ClusterOptions tenant_options() {
  ClusterOptions opts = fast_options();
  opts.arrivals.tenants = {{.arrival_share = 3.0, .job_scale = 1.0},
                           {.arrival_share = 1.0, .job_scale = 0.25}};
  return opts;
}

TEST(Cluster, TenantTaggingFollowsSharesAndScales) {
  const auto scheduler = core::make_scheduler("BDF");
  ClusterSimulation simulation(tenant_options(), *scheduler, 7);
  const ClusterResult result = simulation.run();

  long count[2] = {0, 0};
  long maps[2] = {0, 0};
  for (const auto& j : result.run.jobs) {
    ASSERT_GE(j.tenant, 0);
    ASSERT_LE(j.tenant, 1);
    ++count[j.tenant];
    maps[j.tenant] += j.local_tasks + j.remote_tasks + j.degraded_tasks;
  }
  ASSERT_GT(count[0], 0);
  ASSERT_GT(count[1], 0);
  // Largest-deficit round-robin holds the 3:1 share exactly over any
  // window (within rounding of the total).
  EXPECT_NEAR(static_cast<double>(count[0]),
              3.0 * static_cast<double>(count[1]), 3.0);
  // job_scale 0.25 on a 240-block template with k=15: 60 native blocks.
  EXPECT_EQ(maps[0] / count[0], 240);
  EXPECT_EQ(maps[1] / count[1], 60);
  // The summary grew a per-class block and the JSONL gate is armed.
  EXPECT_TRUE(result.report_tenants);
  ASSERT_EQ(result.summary.tenants.size(), 2u);
  EXPECT_EQ(result.summary.tenants[0].tenant, 0);
  EXPECT_EQ(result.summary.tenants[1].tenant, 1);
  EXPECT_EQ(result.summary.tenants[0].jobs_measured +
                result.summary.tenants[1].jobs_measured,
            result.summary.jobs_measured);
}

TEST(Cluster, TenantJsonlRecordsAreGatedAndPresent) {
  const auto scheduler = core::make_scheduler("BDF");
  std::ostringstream with, without;
  {
    ClusterSimulation simulation(tenant_options(), *scheduler, 9);
    write_cluster_jsonl(with, simulation.run());
  }
  {
    ClusterSimulation simulation(fast_options(), *scheduler, 9);
    write_cluster_jsonl(without, simulation.run());
  }
  EXPECT_NE(with.str().find("\"type\":\"tenant\""), std::string::npos);
  EXPECT_EQ(without.str().find("\"type\":\"tenant\""), std::string::npos);
  EXPECT_EQ(without.str().find("\"tenant\""), std::string::npos);
}

TEST(Cluster, SingleTenantFairAdmissionIsByteIdenticalToFifo) {
  // With one tenant every job shares one usage key, so the fair policy's
  // stable sort must reproduce FIFO exactly — the whole run, byte for byte.
  // This pins the refactor's inertness beyond the default (no-policy) path.
  const auto scheduler = core::make_scheduler("BDF");
  std::ostringstream fifo, fair;
  {
    ClusterSimulation simulation(fast_options(), *scheduler, 5);
    write_cluster_jsonl(fifo, simulation.run());
  }
  {
    ClusterOptions opts = fast_options();
    opts.admission = "fair";
    ClusterSimulation simulation(opts, *scheduler, 5);
    write_cluster_jsonl(fair, simulation.run());
  }
  ASSERT_FALSE(fifo.str().empty());
  EXPECT_EQ(fifo.str(), fair.str());
}

TEST(Cluster, FairAdmissionRunsDeterministically) {
  const auto scheduler = core::make_scheduler("BDF");
  ClusterOptions opts = tenant_options();
  opts.admission = "fair:3,1";
  std::ostringstream first, second;
  {
    ClusterSimulation simulation(opts, *scheduler, 6);
    write_cluster_jsonl(first, simulation.run());
  }
  {
    ClusterSimulation simulation(opts, *scheduler, 6);
    write_cluster_jsonl(second, simulation.run());
  }
  ASSERT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

TEST(Cluster, SpeedProfileMaterializesIntoClusterRun) {
  const auto scheduler = core::make_scheduler("BDF");
  ClusterOptions slow = fast_options();
  slow.speed = mapreduce::SpeedModel::parse("bimodal:0.5,3");
  ClusterSimulation fast_sim(fast_options(), *scheduler, 4);
  ClusterSimulation slow_sim(slow, *scheduler, 4);
  const ClusterResult fast_result = fast_sim.run();
  const ClusterResult slow_result = slow_sim.run();
  // Half the slaves at 3x slower processing must push mean latency up.
  EXPECT_GT(slow_result.summary.latency_mean,
            fast_result.summary.latency_mean);
}

TEST(Cluster, PerTenantSummaryAggregatesByClass) {
  mapreduce::RunResult run;
  const auto add_job = [&run](int id, int tenant, double submit,
                              double finish) {
    mapreduce::JobMetrics j;
    j.id = id;
    j.tenant = tenant;
    j.submit_time = submit;
    j.first_map_launch = submit;
    j.finish_time = finish;
    j.local_tasks = 4;
    run.jobs.push_back(j);
  };
  add_job(0, 0, 150.0, 160.0);  // latency 10
  add_job(1, 0, 200.0, 230.0);  // latency 30
  add_job(2, 1, 250.0, 350.0);  // latency 100
  add_job(3, 1, 10.0, 20.0);    // before warm-up: excluded everywhere

  const SteadyStateSummary s =
      summarize_steady_state(run, {}, {}, /*warmup=*/100.0, /*horizon=*/500.0);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].jobs_measured, 2);
  EXPECT_EQ(s.tenants[0].latency_samples, 2);
  EXPECT_DOUBLE_EQ(s.tenants[0].latency_p50, 20.0);
  EXPECT_DOUBLE_EQ(s.tenants[0].latency_mean, 20.0);
  EXPECT_EQ(s.tenants[1].jobs_measured, 1);
  EXPECT_DOUBLE_EQ(s.tenants[1].latency_p99, 100.0);
  // The overall percentiles still pool every measured job.
  EXPECT_EQ(s.jobs_measured, 3);
  EXPECT_DOUBLE_EQ(s.latency_p50, 30.0);
}

// Smoke leg for the CI admission matrix: when DFS_ADMISSION is set (the CI
// scheduler/cluster re-run exports DFS_ADMISSION=fair), drive a short
// multi-tenant run through that policy spec end to end.
TEST(Cluster, AdmissionEnvSmoke) {
  const char* spec = std::getenv("DFS_ADMISSION");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "DFS_ADMISSION not set; smoke leg runs in CI only";
  }
  ClusterOptions opts = tenant_options();
  opts.admission = spec;
  const auto scheduler = core::make_scheduler("BDF");
  ClusterSimulation simulation(opts, *scheduler, 3);
  const ClusterResult result = simulation.run();
  EXPECT_GT(result.summary.jobs_completed, 0);
  EXPECT_EQ(result.summary.tenants.size(), 2u);
  std::ostringstream os;
  write_cluster_jsonl(os, result);
  EXPECT_NE(os.str().find("\"type\":\"tenant\""), std::string::npos);
}

}  // namespace
}  // namespace dfs::cluster
