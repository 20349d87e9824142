#include "dfs/mapreduce/simulation.h"

#include <stdexcept>
#include <utility>

namespace dfs::mapreduce {

MapReduceSimulation::MapReduceSimulation(
    ClusterConfig config, std::vector<JobInput> jobs,
    storage::FailureScenario failure, core::Scheduler& scheduler,
    std::uint64_t seed, storage::SourceSelection selection,
    storage::RecoveryCostModel cost_model)
    : cfg_(std::move(config)), failure_(std::move(failure)), rng_(seed) {
  net_ = std::make_unique<net::Network>(sim_, cfg_.topology, cfg_.links,
                                        cfg_.contention);
  master_ = std::make_unique<Master>(sim_, *net_, cfg_, failure_, scheduler,
                                     rng_, selection, cost_model);
  for (const JobInput& j : jobs) master_->submit(j);
}

void MapReduceSimulation::set_hooks(TaskHooks hooks) {
  master_->hooks = std::move(hooks);
}

RunResult MapReduceSimulation::run() {
  if (ran_) throw std::logic_error("MapReduceSimulation::run() called twice");
  ran_ = true;
  master_->start();
  sim_.run();
  if (!master_->all_jobs_done()) {
    throw std::runtime_error(
        "simulation drained its event queue with unfinished jobs "
        "(scheduling starvation bug)");
  }
  return master_->take_result();
}

RunResult simulate(const ClusterConfig& config,
                   const std::vector<JobInput>& jobs,
                   const storage::FailureScenario& failure,
                   core::Scheduler& scheduler, std::uint64_t seed,
                   storage::SourceSelection selection,
                   storage::RecoveryCostModel cost_model) {
  MapReduceSimulation s(config, jobs, failure, scheduler, seed,
                        selection, cost_model);
  return s.run();
}

}  // namespace dfs::mapreduce
