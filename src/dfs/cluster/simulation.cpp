#include "dfs/cluster/simulation.h"

#include <stdexcept>
#include <utility>

#include "dfs/ec/reed_solomon.h"
#include "dfs/workload/scenarios.h"

namespace dfs::cluster {

namespace {
// The archive is rs:20,15; its size sets the repair traffic per failure.
constexpr int kArchiveNativeBlocks = 600;
constexpr int kArchiveN = 20;
constexpr int kArchiveK = 15;
}  // namespace

ClusterOptions::ClusterOptions() {
  config = workload::default_sim_cluster();
  // Lighter than the paper's §V-B job (1440 blocks) so the default stream
  // keeps the cluster moderately loaded at one submission per minute: 240
  // maps of ~20 s each is ~30 s of work for the 160 map slots, plus shuffle
  // — roughly 40% network utilization, queueing but not saturation.
  arrivals.job.num_blocks = 240;
  arrivals.job.num_reducers = 10;
}

ClusterSimulation::ClusterSimulation(ClusterOptions options,
                                     core::Scheduler& scheduler,
                                     std::uint64_t seed)
    : opts_(std::move(options)), rng_(seed) {
  // ClusterOptions::horizon is authoritative for every component window.
  opts_.arrivals.horizon = opts_.horizon;
  opts_.lifecycle.horizon = opts_.horizon;
  opts_.lifecycle.block_size = opts_.config.block_size;
  opts_.lifecycle.compute_failures = opts_.config.fault.compute_failures;

  // Materialize the speed profile before the master snapshots the config.
  // Uniform materializes to the empty vector: skip the assignment entirely
  // so an explicitly-set node_time_scale survives and inert runs stay
  // byte-identical.
  if (!opts_.speed.uniform()) {
    opts_.config.node_time_scale =
        opts_.speed.materialize(opts_.config.topology.num_nodes());
  }

  net_ = std::make_unique<net::Network>(sim_, opts_.config.topology,
                                        opts_.config.links,
                                        opts_.config.contention);
  if (opts_.net_jobs > 1) {
    net_pool_ = std::make_unique<runner::ThreadPool>(opts_.net_jobs);
    net_->set_thread_pool(net_pool_.get());
  }
  master_ = std::make_unique<mapreduce::Master>(sim_, *net_, opts_.config,
                                                failure_, scheduler, rng_);
  master_->set_admission_open(true);
  // FIFO keeps the null fast path (no policy call per heartbeat); anything
  // else is built by the factory and installed for the master's lifetime.
  if (!opts_.admission.empty() && opts_.admission != "fifo") {
    admission_policy_ = core::make_admission_policy(opts_.admission);
    master_->set_admission_policy(admission_policy_.get());
  }

  // The cluster's archival data: what a failed node actually loses and a
  // repair actually rebuilds. Shares the network with the job traffic.
  archive_layout_ = std::make_shared<const storage::StorageLayout>(
      storage::random_rack_constrained_layout(kArchiveNativeBlocks, kArchiveN,
                                              kArchiveK, opts_.config.topology,
                                              rng_));
  archive_code_ = ec::make_reed_solomon(kArchiveN, kArchiveK);

  lifecycle_ = std::make_unique<LifecycleDriver>(
      sim_, *net_, *master_, failure_, *archive_layout_, *archive_code_,
      opts_.lifecycle, rng_.fork());
  arrivals_ = std::make_unique<ArrivalProcess>(
      sim_, *master_, opts_.config.topology, opts_.arrivals, rng_.fork());
  sampler_ = std::make_unique<ClusterSampler>(
      sim_, *net_, *master_, *lifecycle_, opts_.sample_interval, [this] {
        // Keep sampling through the drain tail: until admission has closed,
        // the queue has emptied, and the last repair has finished.
        return sim_.now() < opts_.horizon || !master_->all_jobs_done() ||
               !lifecycle_->idle();
      });
}

ClusterResult ClusterSimulation::run() {
  if (ran_) throw std::logic_error("ClusterSimulation::run() called twice");
  ran_ = true;

  master_->start();
  arrivals_->start();
  lifecycle_->start();
  sampler_->start();
  sim_.schedule_at(opts_.horizon, [this] { master_->finish_admission(); });

  sim_.run();

  if (!master_->all_jobs_done()) {
    throw std::runtime_error(
        "cluster simulation drained its event queue with unfinished jobs "
        "(scheduling starvation bug)");
  }

  ClusterResult result;
  result.run = master_->take_result();
  result.failures = lifecycle_->events();
  result.timeline = sampler_->samples();
  result.net_stats = net_->stats();
  result.report_hedging = opts_.config.fetch_supervised();
  result.report_tenants = !opts_.arrivals.tenants.empty();
  result.summary = summarize_steady_state(result.run, result.failures,
                                          result.timeline, opts_.warmup,
                                          opts_.horizon);
  return result;
}

}  // namespace dfs::cluster
