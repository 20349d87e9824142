#pragma once

#include <vector>

#include "dfs/core/admission.h"
#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/fault_supervisor.h"
#include "dfs/mapreduce/map_phase.h"
#include "dfs/mapreduce/master_state.h"
#include "dfs/mapreduce/shuffle_phase.h"

namespace dfs::mapreduce {

/// The MapReduce master (Hadoop's JobTracker), reduced to the heartbeat
/// loop, job admission/FIFO, and the `core::SchedulerContext` facade. The
/// actual task lifecycles live in three phase engines composed over one
/// shared MasterState store:
///
/// - MapPhase — pending-task indexes, classification, launch/unlaunch
///   pacing accounting, speculation (the paper's Algorithms 1-3 mutate it
///   through the SchedulerContext assign_* calls);
/// - ShufflePhase — reduce assignment, partition fetches, processing;
/// - FaultSupervisor — heartbeat expiry, reaping, requeue, blacklist,
///   job abort, in-flight read re-planning.
class Master final : public core::SchedulerContext {
 public:
  Master(sim::Simulator& simulator, net::Network& network,
         const ClusterConfig& config, const storage::FailureScenario& failure,
         core::Scheduler& scheduler, util::Rng& rng,
         storage::SourceSelection selection =
             storage::SourceSelection::kRandom,
         storage::RecoveryCostModel cost_model =
             storage::RecoveryCostModel{});

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  /// Register a job; it activates at spec.submit_time. In online mode this
  /// may also be called after start() — the cluster arrival generator admits
  /// jobs into the FIFO queue while the simulation runs.
  void submit(const JobInput& input);

  /// Start the per-slave heartbeat loops. Call once, before Simulator::run.
  void start();

  /// Online mode: while admission is open, heartbeats keep running (and
  /// submit() stays legal) after the current jobs drain. Call before
  /// start(); snapshot runs leave admission closed.
  void set_admission_open(bool open) { admission_open_ = open; }

  /// No further submissions will arrive; heartbeat loops stop once the
  /// remaining jobs drain.
  void finish_admission() { admission_open_ = false; }

  /// Install a job-queue ordering policy (non-owning; the caller keeps it
  /// alive for the master's lifetime). Null — the default — is the FIFO
  /// fast path: running_jobs() hands out submission order with no policy
  /// call at all, byte-identical to the pre-admission-seam master.
  void set_admission_policy(core::AdmissionPolicy* policy) {
    admission_policy_ = policy;
  }

  /// A node's storage and task slots went away (cluster lifecycle event).
  /// Pending map tasks whose last readable copy was on `node` become
  /// degraded; tasks already running are allowed to finish (the failure
  /// model is a DataNode/storage loss, as in the paper). With the fault
  /// layer on, in-flight degraded reads sourced from `node` are re-planned
  /// from the surviving stripe blocks, and non-degraded input fetches from
  /// it are killed and requeued.
  void on_node_failed(NodeId node);

  /// Fault layer only: the node's TaskTracker died too. Its heartbeats stop
  /// immediately; attempts running there are doomed (they will never finish)
  /// and their transfers cancelled, but the master only learns of the death
  /// — kills the attempts, requeues the tasks, re-executes lost map outputs
  /// — once the heartbeat-expiry window passes. Call right after
  /// on_node_failed(node).
  void on_compute_failed(NodeId node);

  /// The node's blocks have been rebuilt: it serves reads and heartbeats
  /// again. Pending degraded tasks whose input lived on `node` regain their
  /// locality.
  void on_node_repaired(NodeId node);

  bool all_jobs_done() const { return state_.jobs_done == state_.jobs.size(); }
  std::size_t jobs_submitted() const { return state_.jobs.size(); }
  std::size_t jobs_completed() const { return state_.jobs_done; }

  /// Fault layer: is the slave currently blacklisted (advertises no slots)?
  bool blacklisted(NodeId node) const {
    return state_.slave(node).blacklisted;
  }

  /// Collect the result after the simulation has drained.
  RunResult take_result();

  TaskHooks hooks;

  // --- core::SchedulerContext --------------------------------------------------
  util::Seconds now() const override;
  int tenant_of(core::JobId job) const override;
  int free_map_slots(NodeId slave) const override;
  bool has_unassigned_local(core::JobId job, NodeId slave) const override;
  bool has_unassigned_remote(core::JobId job, NodeId slave) const override;
  bool has_unassigned_degraded(core::JobId job) const override;
  void assign_local(core::JobId job, NodeId slave) override;
  void assign_remote(core::JobId job, NodeId slave) override;
  void assign_degraded(core::JobId job, NodeId slave) override;
  int degraded_affinity(core::JobId job, NodeId slave) const override;
  long launched_maps(core::JobId job) const override;
  long running_maps(core::JobId job) const override;
  long total_maps(core::JobId job) const override;
  long launched_degraded(core::JobId job) const override;
  long total_degraded(core::JobId job) const override;
  double launched_degraded_cost(core::JobId job) const override;
  double total_degraded_cost(core::JobId job) const override;
  util::Seconds local_work_seconds(NodeId slave) const override;
  util::Seconds mean_local_work_seconds() const override;
  util::Seconds time_since_last_degraded(RackId rack) const override;
  util::Seconds mean_time_since_last_degraded() const override;
  util::Seconds degraded_read_threshold() const override;
  RackId rack_of(NodeId slave) const override;

 protected:
  const std::vector<core::JobId>& running_jobs_ref() const override;

 private:
  void activate_job(std::size_t index);
  void start_heartbeat(NodeId slave);
  void on_heartbeat(NodeId slave);

  MasterState state_;
  MapPhase map_;
  ShufflePhase shuffle_;
  FaultSupervisor fault_;

  core::Scheduler& scheduler_;
  /// Optional job-queue ordering; null = FIFO fast path (no policy call).
  core::AdmissionPolicy* admission_policy_ = nullptr;
  util::Rng& rng_;
  storage::SourceSelection selection_;
  storage::RecoveryCostModel cost_model_;
  bool started_ = false;
  /// Scratch for running_jobs(): filled per call, valid until the next one.
  mutable std::vector<core::JobId> running_jobs_scratch_;
  /// True while further submissions may arrive (online mode); heartbeat
  /// loops keep running through idle periods until admission closes and all
  /// jobs are done. Snapshot runs never open it.
  bool admission_open_ = false;
};

}  // namespace dfs::mapreduce
