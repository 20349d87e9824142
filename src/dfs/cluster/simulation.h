#pragma once

#include <cstdint>
#include <memory>

#include "dfs/cluster/arrivals.h"
#include "dfs/cluster/lifecycle.h"
#include "dfs/cluster/metrics.h"
#include "dfs/core/admission.h"
#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/config.h"
#include "dfs/mapreduce/master.h"
#include "dfs/mapreduce/speed_model.h"
#include "dfs/net/network.h"
#include "dfs/runner/thread_pool.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"

namespace dfs::cluster {

/// Knobs of one long-horizon cluster run. Defaults give a 2-hour window on
/// the paper's §V-B cluster at roughly 70% map-slot load with a handful of
/// failure/repair cycles.
struct ClusterOptions {
  mapreduce::ClusterConfig config;  ///< default: §V-B cluster (see .cpp)
  ArrivalOptions arrivals;
  LifecycleOptions lifecycle;
  /// Admission + failure-injection window; jobs in flight at the horizon
  /// still drain, so the simulation usually ends a little after it.
  util::Seconds horizon = 2.0 * 3600.0;
  /// Jobs submitted before the warm-up cutoff are excluded from the
  /// steady-state statistics (queue fill-up transient).
  util::Seconds warmup = 600.0;
  util::Seconds sample_interval = 60.0;
  /// Per-slave speed profile, materialized into config.node_time_scale at
  /// construction. The uniform default materializes to the empty vector and
  /// leaves any explicitly-set config.node_time_scale untouched, so it is
  /// byte-identical to never having had a speed model.
  mapreduce::SpeedModel speed;
  /// Job-queue ordering policy: "fifo" (the default — no policy object is
  /// even installed), "fair", or "fair:w0,w1,..." per-tenant weights.
  std::string admission = "fifo";
  /// Worker threads for the network's fair-share component recompute. At 1
  /// (the default) everything runs inline; above 1 the simulation owns a
  /// dedicated ThreadPool and independent congestion components are water-
  /// filled concurrently. Output is byte-identical at any setting — the
  /// components are disjoint, so only wall-clock changes.
  int net_jobs = 1;

  ClusterOptions();  ///< fills config/arrivals/lifecycle with §V-B defaults
};

/// Online long-horizon cluster lifecycle simulation: an open-loop job
/// stream, mid-run failures and repairs, and steady-state latency metrics —
/// the regime the snapshot experiments (MapReduceSimulation) cannot reach.
/// Owns every component and keeps them consistent: one Simulator, one
/// flow-level Network carrying job + shuffle + repair traffic, one Master in
/// online-admission mode, and one shared time-varying FailureScenario.
class ClusterSimulation {
 public:
  ClusterSimulation(ClusterOptions options, core::Scheduler& scheduler,
                    std::uint64_t seed);

  /// Runs to the horizon plus drain and returns the collected result.
  /// Throws std::runtime_error if the run stalls.
  ClusterResult run();

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *net_; }
  mapreduce::Master& master() { return *master_; }
  LifecycleDriver& lifecycle() { return *lifecycle_; }
  const storage::FailureScenario& failure() const { return failure_; }

 private:
  ClusterOptions opts_;
  util::Rng rng_;
  sim::Simulator sim_;
  storage::FailureScenario failure_;  ///< shared time-varying health view
  /// Dedicated pool for the network's component recompute (never shared
  /// with a seed-sweep pool: Network::wait_idle on a pool whose worker is
  /// running this simulation would deadlock). Null when net_jobs <= 1.
  std::unique_ptr<runner::ThreadPool> net_pool_;
  std::unique_ptr<net::Network> net_;
  /// Owns the master's admission policy; null for FIFO (no policy at all).
  std::unique_ptr<core::AdmissionPolicy> admission_policy_;
  std::unique_ptr<mapreduce::Master> master_;
  std::shared_ptr<const storage::StorageLayout> archive_layout_;
  std::shared_ptr<const ec::ErasureCode> archive_code_;
  std::unique_ptr<LifecycleDriver> lifecycle_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<ClusterSampler> sampler_;
  bool ran_ = false;
};

}  // namespace dfs::cluster
