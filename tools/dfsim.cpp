// dfsim — drive MapReduce-over-erasure-coding simulations from the command
// line, without writing any C++.
//
//   dfsim --scheduler EDF --failure node --seeds 10
//   dfsim --racks 6 --nodes-per-rack 4 --code rs:12,10 --blocks 240
//         --block-mb 64 --bandwidth-mbps 250 --scheduler LF --csv out/run
//
// `dfsim --help` lists every flag with its range and default (the paper's
// §V-B simulation setup); the README explains the larger ones.

#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "dfs/core/scheduler.h"
#include "dfs/ec/registry.h"
#include "dfs/mapreduce/repair.h"
#include "dfs/net/utilization.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/mapreduce/speed_model.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/runner/sweep.h"
#include "dfs/runner/thread_pool.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/args.h"
#include "dfs/util/jsonl.h"
#include "dfs/util/stats.h"
#include "dfs/util/table.h"

using namespace dfs;

namespace {

int fail(const std::string& message) {
  std::cerr << "dfsim: " << message << "\n";
  return 1;
}

int run(int argc, char** argv) {
  using util::above, util::at_least, util::one_of;
  mapreduce::ClusterConfig cfg;
  mapreduce::JobSpec spec;
  storage::RecoveryCostModel cost_model;
  int racks = 4, rack_width = 10, blocks = 1440, seeds = 10;
  int jobs = runner::default_jobs(), repair_concurrency = 0;
  double block_mb = 128.0, rack_mbps = 1000.0, node_mbps = 0.0, skew = 0.0;
  std::vector<double> map_time{20, 1}, reduce_time{30, 2};
  std::string contention = "fair", scheduler_name = "LF";
  std::string placement = "random", failure_kind = "node", sources = "random";
  std::string planner_name = "cheapest", speed_spec = "uniform";
  std::shared_ptr<ec::ErasureCode> code;
  std::optional<std::string> csv_prefix;
  bool show_recovery_stats = false, normalize = false;
  bool show_utilization = false, show_net_stats = false;

  util::FlagTable f("dfsim", "MapReduce-over-erasure-coding simulator");
  f.add("racks", &racks, "racks in the cluster", at_least(1));
  f.add("nodes-per-rack", &rack_width, "nodes per rack", at_least(1));
  f.add("map-slots", &cfg.map_slots_per_node, "map slots per node",
        at_least(1));
  f.add("reduce-slots", &cfg.reduce_slots_per_node,
        "reduce slots per node (0 needs --reducers 0)", at_least(0));
  f.add("block-mb", &block_mb, "block size, MiB", above(0));
  f.add("bandwidth-mbps", &rack_mbps, "rack up/down bandwidth", above(0));
  f.add("node-bandwidth-mbps", &node_mbps,
        "node link bandwidth (0 = unlimited)", at_least(0));
  f.add("contention", &contention, "network model", one_of({"fair", "fifo"}));
  f.add("heartbeat", &cfg.heartbeat_interval, "heartbeat period, s",
        above(0));
  f.add("blocks", &blocks, "native blocks (= map tasks)", at_least(1));
  f.add("code", "rs:20,15", ec::code_flag(code), ec::code_spec_help());
  f.add("placement", &placement, "block placement",
        one_of({"random", "roundrobin", "replicated"}));
  f.add("reducers", &spec.num_reducers, "reduce tasks", at_least(0));
  f.add("shuffle", &spec.shuffle_ratio, "shuffle size per block",
        at_least(0));
  f.add("map-time", &map_time, "map time MEAN,SD, s", at_least(0));
  f.add("reduce-time", &reduce_time, "reduce time MEAN,SD, s", at_least(0));
  f.add("scheduler", &scheduler_name,
        "LF | BDF | EDF | DELAY | FAIR | FAIR+DF");
  f.add("failure", &failure_kind, "failure pattern",
        one_of({"none", "node", "2node", "rack"}));
  f.add("seeds", &seeds, "independent runs", at_least(1));
  f.add("jobs", &jobs, "worker threads (output is identical)", at_least(1));
  f.add("sources", &sources, "degraded-read source choice",
        one_of({"random", "samerack"}));
  f.add("planner", &planner_name,
        "degraded-read planning; fullshard fetches whole blocks",
        one_of({"cheapest", "fullshard"}));
  f.add("cross-rack-cost", &cost_model.cross_rack_weight,
        "planner cost of a cross-rack fetch (1 = neutral)", above(0));
  f.add("recovery-stats", &show_recovery_stats, "print recovery_stats lines");
  f.add("speed-profile", &speed_spec,
        "uniform | bimodal:FRAC,SLOWDOWN[,SEED] | vector:F0,F1,...");
  f.add("skew", &skew, "Zipf exponent of random placement", at_least(0));
  f.add("speculate", &cfg.speculative_execution, "speculative execution");
  f.add("repair", &repair_concurrency,
        "background repair concurrency (0 = off)", at_least(0));
  f.add("utilization", &show_utilization, "print rack-downlink utilization");
  f.add("net-stats", &show_net_stats, "print net_stats lines");
  f.add("csv", &csv_prefix, "write CSV traces of the first run");
  f.add("normalize", &normalize, "also report normal-mode ratios");
  f.add_help();
  f.parse_or_exit(argc, argv, 1);
  if (map_time.size() != 2 || reduce_time.size() != 2 || map_time[0] <= 0.0 ||
      reduce_time[0] <= 0.0) {
    return fail("--map-time and --reduce-time take MEAN,SD with MEAN > 0");
  }
  if (cfg.reduce_slots_per_node == 0 && spec.num_reducers > 0) {
    return fail("--reduce-slots 0 needs --reducers 0");
  }
  if (skew > 0.0 && placement != "random") {
    return fail("--skew needs --placement random");
  }
  spec.map_time = {map_time[0], map_time[1]};
  spec.reduce_time = {reduce_time[0], reduce_time[1]};
  cfg.topology = net::Topology(racks, rack_width);
  cfg.block_size = util::mebibytes(block_mb);
  cfg.links.rack_up = util::megabits_per_sec(rack_mbps);
  cfg.links.rack_down = util::megabits_per_sec(rack_mbps);
  cfg.links.node_up = node_mbps > 0 ? util::megabits_per_sec(node_mbps)
                                    : util::kUnlimitedBandwidth;
  cfg.links.node_down = cfg.links.node_up;
  if (contention == "fifo") {
    cfg.contention = net::ContentionModel::kExclusiveFifo;
  }
  const auto speed = mapreduce::SpeedModel::parse(speed_spec);
  if (!speed.uniform()) {
    cfg.node_time_scale = speed.materialize(cfg.topology.num_nodes());
  }
  cost_model.allow_subshard = planner_name != "fullshard";
  const auto selection = sources == "samerack"
                             ? storage::SourceSelection::kPreferSameRack
                             : storage::SourceSelection::kRandom;
  // Validate the scheduler spec once up front; every sweep cell builds its
  // own instance from the same name (schedulers like DELAY carry mutable
  // state, so one instance must never be shared across concurrent seeds).
  const auto scheduler = core::make_scheduler(scheduler_name);

  util::Table table({"seed", "runtime(s)", "map_phase(s)", "degraded",
                     "remote", "mean_drt(s)", "normalized"});
  // Each seed is one sweep cell. A cell owns its entire stack (Rng, layout,
  // scheduler, simulation) and buffers its stdout/stderr text; the buffers
  // are flushed in seed order below, so the streams are byte-identical for
  // any --jobs value.
  struct SeedOutcome {
    std::string log;   // per-seed stdout lines
    std::string warn;  // per-seed stderr lines
    std::vector<std::string> row;
    double runtime = 0.0;
    double norm = 0.0;
  };
  runner::ThreadPool pool(jobs);
  std::vector<SeedOutcome> outcomes;
  try {
    outcomes = runner::sweep(
        pool, static_cast<std::size_t>(seeds), [&](std::size_t cell) {
          const int s = static_cast<int>(cell);
          SeedOutcome out;
          std::ostringstream log, warn;
          const auto sched = core::make_scheduler(scheduler_name);
          util::Rng rng(static_cast<std::uint64_t>(s) * 100003 + 7);
          mapreduce::JobInput job;
          job.spec = spec;
          job.code = code;
          try {
            if (placement == "roundrobin") {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::round_robin_layout(blocks, code->n(), code->k(),
                                              cfg.topology.num_nodes()));
            } else if (placement == "replicated") {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::replicated_layout(blocks, code->n(), cfg.topology,
                                             rng));
            } else if (skew > 0.0) {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::zipf_rack_skewed_layout(blocks, code->n(),
                                                   code->k(), cfg.topology,
                                                   rng, skew));
            } else {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::random_rack_constrained_layout(
                      blocks, code->n(), code->k(), cfg.topology, rng));
            }
          } catch (const std::exception& e) {
            throw std::runtime_error(std::string("layout: ") + e.what());
          }

          storage::FailureScenario failure;
          if (failure_kind == "node") {
            failure = storage::single_node_failure(cfg.topology, rng);
          } else if (failure_kind == "2node") {
            failure = storage::double_node_failure(cfg.topology, rng);
          } else if (failure_kind == "rack") {
            failure = storage::rack_failure(cfg.topology, rng);
          }

          const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
          mapreduce::MapReduceSimulation simulation(
              cfg, {job}, failure, *sched, seed, selection, cost_model);
          bool finished = false;
          std::unique_ptr<net::UtilizationSampler> sampler;
          if (show_utilization && s == 0) {
            mapreduce::TaskHooks hooks;
            hooks.on_job_finish =
                [&finished](const mapreduce::JobMetrics&) { finished = true; };
            simulation.set_hooks(std::move(hooks));
            sampler = std::make_unique<net::UtilizationSampler>(
                simulation.simulator(), simulation.network(),
                /*interval=*/10.0, [&finished] { return !finished; });
            sampler->start();
          }
          std::unique_ptr<mapreduce::RepairProcess> repair;
          if (repair_concurrency > 0) {
            mapreduce::RepairProcess::Options ropts;
            ropts.concurrency = repair_concurrency;
            ropts.block_size = cfg.block_size;
            ropts.selection = selection;
            repair = std::make_unique<mapreduce::RepairProcess>(
                simulation.simulator(), simulation.network(), *job.layout,
                *job.code, failure, ropts, util::Rng(seed * 31 + 3));
            repair->start();
          }
          const auto result = simulation.run();
          if (repair) {
            log << "seed " << s << ": repair rebuilt "
                << repair->stats().blocks_repaired << " blocks by t="
                << util::Table::num(repair->stats().finish_time, 1) << "s\n";
          }
          if (sampler) {
            log << "rack-downlink utilization (seed 0, 10 s buckets):\n";
            for (const auto& sample : sampler->samples()) {
              const int bars = static_cast<int>(sample.utilization * 40.0 + 0.5);
              log << "  " << util::Table::num(sample.time, 0) << "s\t"
                  << std::string(static_cast<std::size_t>(bars), '#') << ' '
                  << util::Table::pct(sample.utilization * 100.0, 0) << "\n";
            }
          }
          const auto& m = result.jobs.front();
          if (normalize) {
            const auto base = mapreduce::simulate(
                cfg, {job}, storage::no_failure(), *sched, seed, selection,
                cost_model);
            out.norm = m.runtime() / base.jobs.front().runtime();
          }
          if (result.speculative_attempts() > 0) {
            log << "seed " << s << ": " << result.speculative_attempts()
                << " speculative attempts (" << result.speculative_losses()
                << " wasted)\n";
          }
          // Gated behind --net-stats so default output stays byte-identical
          // to earlier versions. One JSON line per seed, emitted in seed
          // order via the buffered cell log.
          if (show_net_stats) {
            const net::Network::Stats ns = simulation.network().stats();
            util::JsonlWriter w(log);
            w.begin("net_stats").field("seed", s);
            net::append_net_stats(w, ns);
            w.end();
          }
          // Gated behind --recovery-stats (same buffering contract as
          // --net-stats): degraded fetch volume in block units.
          if (show_recovery_stats) {
            util::JsonlWriter w(log);
            w.begin("recovery_stats")
                .field("seed", s)
                .field("degraded_tasks", m.degraded_tasks)
                .field("fetch_blocks", result.degraded_fetch_blocks())
                .field("mean_fetch_blocks",
                       result.mean_degraded_fetch_blocks());
            w.end();
          }
          out.runtime = m.runtime();
          out.row = {std::to_string(s), util::Table::num(m.runtime(), 1),
                     util::Table::num(m.map_phase_end - m.first_map_launch, 1),
                     std::to_string(m.degraded_tasks),
                     std::to_string(m.remote_tasks),
                     util::Table::num(result.mean_degraded_read_time(), 1),
                     normalize ? util::Table::num(out.norm, 3) : ""};
          if (result.data_loss) {
            warn << "warning: seed " << s
                 << " had unrecoverable blocks (data loss)\n";
          }
          if (s == 0 && csv_prefix) {
            // Non-uniform speed profiles opt the map-task CSV into the
            // time_scale column; default traces keep their exact columns.
            mapreduce::write_csv_files(*csv_prefix, result,
                                       !speed.uniform());
          }
          out.log = log.str();
          out.warn = warn.str();
          return out;
        });
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  std::vector<double> runtimes, normalized;
  for (auto& out : outcomes) {
    std::cout << out.log;
    std::cerr << out.warn;
    runtimes.push_back(out.runtime);
    if (normalize) normalized.push_back(out.norm);
    table.add_row(std::move(out.row));
  }
  std::cout << "dfsim: scheduler=" << scheduler->name() << " code="
            << code->name() << " blocks=" << blocks << " failure="
            << failure_kind << '\n'
            << table;
  const auto box = util::boxplot(runtimes);
  std::cout << "runtime: " << util::to_string(box) << '\n';
  if (normalize) {
    std::cout << "normalized: " << util::to_string(util::boxplot(normalized))
              << '\n';
  }
  if (csv_prefix) {
    std::cout << "CSV trace of seed 0 written to " << *csv_prefix
              << "_{map_tasks,reduce_tasks,jobs}.csv\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The flag table reports its own errors; the scheduler and
  // speed-profile spec parsers throw theirs to here.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
}
