#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/config.h"
#include "dfs/mapreduce/master.h"
#include "dfs/mapreduce/metrics.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/failure.h"

namespace dfs::mapreduce {

/// Everything one simulated MapReduce run needs, wired together: the event
/// kernel, the flow-level network, and the master with its slaves. Owns all
/// components; `run()` drives the simulation to completion.
class MapReduceSimulation {
 public:
  MapReduceSimulation(ClusterConfig config, std::vector<JobInput> jobs,
                      storage::FailureScenario failure,
                      core::Scheduler& scheduler, std::uint64_t seed,
                      storage::SourceSelection selection =
                          storage::SourceSelection::kRandom,
                      storage::RecoveryCostModel cost_model =
                          storage::RecoveryCostModel{});

  /// Attach before run() to execute real work at task boundaries.
  void set_hooks(TaskHooks hooks);

  /// Run to completion and return the collected metrics.
  /// Throws std::runtime_error if the run stalls (a scheduling bug).
  RunResult run();

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *net_; }

 private:
  ClusterConfig cfg_;
  storage::FailureScenario failure_;
  util::Rng rng_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<Master> master_;
  bool ran_ = false;
};

/// One-call convenience wrapper used throughout the benches.
RunResult simulate(const ClusterConfig& config,
                   const std::vector<JobInput>& jobs,
                   const storage::FailureScenario& failure,
                   core::Scheduler& scheduler, std::uint64_t seed,
                   storage::SourceSelection selection =
                       storage::SourceSelection::kRandom,
                   storage::RecoveryCostModel cost_model =
                       storage::RecoveryCostModel{});

}  // namespace dfs::mapreduce
