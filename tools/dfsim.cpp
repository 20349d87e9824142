// dfsim — drive MapReduce-over-erasure-coding simulations from the command
// line, without writing any C++.
//
//   dfsim --scheduler EDF --failure node --seeds 10
//   dfsim --racks 3 --nodes-per-rack 4 --code rs:12,10 --blocks 240
//         --block-mb 64 --bandwidth-mbps 250 --scheduler LF --csv out/run
//
// Flags (defaults follow the paper's §V-B simulation setup):
//   --racks N             racks in the cluster              [4]
//   --nodes-per-rack N    nodes per rack                    [10]
//   --map-slots N         map slots per node                [4]
//   --reduce-slots N      reduce slots per node             [1]
//   --block-mb N          block size in MiB                 [128]
//   --bandwidth-mbps X    rack up/down bandwidth            [1000]
//   --node-bandwidth-mbps X  node link bandwidth (0 = unlimited) [0]
//   --contention MODEL    fair | fifo                       [fair]
//   --heartbeat X         heartbeat interval in seconds     [3]
//   --blocks F            native blocks (= map tasks)       [1440]
//   --code SPEC           rs:n,k | crs:n,k | lrc:k,l,r | hh:n,k | rep:r
//                                                           [rs:20,15]
//   --placement P         random | roundrobin | replicated  [random]
//   --reducers N          reduce tasks                      [30]
//   --shuffle X           shuffle ratio (fraction of block) [0.01]
//   --map-time M,SD       map processing time, normal dist  [20,1]
//   --reduce-time M,SD    reduce processing time            [30,2]
//   --scheduler S         LF | BDF | EDF | DELAY            [LF]
//   --failure F           none | node | 2node | rack        [node]
//   --seeds N             independent runs                  [10]
//   --jobs N              worker threads for the seed sweep
//                         [all hardware threads; output is byte-identical
//                          for any value — seeds are independent cells]
//   --sources POLICY      random | samerack                 [random]
//   --planner P           cheapest | fullshard: degraded-read planning;
//                         fullshard disables sub-shard recovery options
//                         (every source fetches whole blocks)  [cheapest]
//   --cross-rack-cost X   cost-model weight of a cross-rack fetch relative
//                         to an in-rack fetch (1 = neutral)    [1]
//   --recovery-stats      print one recovery_stats JSON line per seed
//                         (degraded fetch volume in block units)
//   --speed-profile SPEC  per-node speed profile: uniform |
//                         bimodal:FRAC,SLOWDOWN[,SEED] | vector:F0,F1,...
//                         (when active, the map-task CSV gains a
//                         time_scale column)
//                                                           [uniform]
//   --skew S              Zipf exponent for the random placement — rack 0
//                         gets the hottest blocks (0 = uniform)   [0]
//   --speculate           enable Hadoop-style speculative execution
//   --repair N            run background repair with concurrency N
//   --utilization         print a rack-downlink utilization timeline
//   --net-stats           print one net_stats JSON line per seed (network
//                         engine counters: flow totals, fast paths,
//                         batched/component recomputes)
//   --csv PREFIX          write per-task/job CSVs of the first run
//   --normalize           also run normal mode and report ratios

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
#include "dfs/runner/jobs_flag.h"
#include "dfs/runner/sweep.h"
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

int run(const util::Args& args) {
  if (args.has("help")) {
    std::cout
        << "dfsim - MapReduce-over-erasure-coding simulator\n"
           "  --racks N --nodes-per-rack N --map-slots N --reduce-slots N\n"
           "  --block-mb N --bandwidth-mbps X --node-bandwidth-mbps X\n"
           "  --contention fair|fifo --heartbeat X\n"
           "  --blocks F --code SPEC --placement random|roundrobin|replicated\n"
           "  --reducers N --shuffle X --map-time M,SD --reduce-time M,SD\n"
           "  --scheduler LF|BDF|EDF|DELAY|FAIR|FAIR+DF\n"
           "  --failure none|node|2node|rack --sources random|samerack\n"
           "  --planner cheapest|fullshard --cross-rack-cost X\n"
           "  --speed-profile uniform|bimodal:F,S[,SEED]|vector:F0,...\n"
           "  --skew S\n"
           "  --seeds N --jobs N --speculate --repair N --normalize\n"
           "  --csv PREFIX --utilization --net-stats --recovery-stats\n"
           "  code SPEC: "
        << ec::code_spec_help() << "\n";
    return 0;
  }

  mapreduce::ClusterConfig cfg;
  cfg.topology = net::Topology(args.get_int("racks", 4),
                               args.get_int("nodes-per-rack", 10));
  cfg.map_slots_per_node = args.get_int("map-slots", 4);
  cfg.reduce_slots_per_node = args.get_int("reduce-slots", 1);
  cfg.block_size = util::mebibytes(args.get_double("block-mb", 128.0));
  cfg.heartbeat_interval = args.get_double("heartbeat", 3.0);
  const double rack_mbps = args.get_double("bandwidth-mbps", 1000.0);
  cfg.links.rack_up = util::megabits_per_sec(rack_mbps);
  cfg.links.rack_down = util::megabits_per_sec(rack_mbps);
  const double node_mbps = args.get_double("node-bandwidth-mbps", 0.0);
  cfg.links.node_up = node_mbps > 0 ? util::megabits_per_sec(node_mbps)
                                    : util::kUnlimitedBandwidth;
  cfg.links.node_down = cfg.links.node_up;
  const std::string contention = args.get_or("contention", "fair");
  if (contention == "fifo") {
    cfg.contention = net::ContentionModel::kExclusiveFifo;
  } else if (contention != "fair") {
    return fail("unknown --contention " + contention);
  }

  std::shared_ptr<ec::ErasureCode> code;
  try {
    code = ec::make_code_from_spec(args.get_or("code", "rs:20,15"));
  } catch (const std::invalid_argument& e) {
    return fail(std::string("bad --code parameters: ") + e.what());
  }
  if (!code) {
    return fail(std::string("bad --code spec (") + ec::code_spec_help() + ")");
  }
  const int blocks = args.get_int("blocks", 1440);

  mapreduce::JobSpec spec;
  spec.num_reducers = args.get_int("reducers", 30);
  spec.shuffle_ratio = args.get_double("shuffle", 0.01);
  const auto mt =
      util::parse_double_list("--map-time", args.get_or("map-time", "20,1"));
  const auto rt = util::parse_double_list("--reduce-time",
                                          args.get_or("reduce-time", "30,2"));
  if (mt.size() != 2 || rt.size() != 2) return fail("bad --map-time/--reduce-time");
  spec.map_time = {mt[0], mt[1]};
  spec.reduce_time = {rt[0], rt[1]};

  // Validate the scheduler spec once up front; every sweep cell builds its
  // own instance from the same name (schedulers like DELAY carry mutable
  // state, so one instance must never be shared across concurrent seeds).
  const std::string scheduler_name = args.get_or("scheduler", "LF");
  std::unique_ptr<core::Scheduler> scheduler;
  try {
    scheduler = core::make_scheduler(scheduler_name);
  } catch (const std::exception& e) {
    return fail(e.what());
  }

  const std::string placement = args.get_or("placement", "random");
  const std::string failure_kind = args.get_or("failure", "node");
  const std::string sources = args.get_or("sources", "random");
  const auto selection = sources == "samerack"
                             ? storage::SourceSelection::kPreferSameRack
                             : storage::SourceSelection::kRandom;
  const std::string planner_name = args.get_or("planner", "cheapest");
  storage::RecoveryCostModel cost_model;
  if (planner_name == "fullshard") {
    cost_model.allow_subshard = false;
  } else if (planner_name != "cheapest") {
    return fail("unknown --planner " + planner_name);
  }
  cost_model.cross_rack_weight = args.get_double("cross-rack-cost", 1.0);
  const bool show_recovery_stats = args.has("recovery-stats");
  const int seeds = args.get_int("seeds", 10);
  const auto jobs = runner::jobs_from_args(args);
  const bool normalize = args.has("normalize");
  const auto csv_prefix = args.get("csv");
  cfg.speculative_execution = args.has("speculate");
  const int repair_concurrency = args.get_int("repair", 0);
  const bool show_utilization = args.has("utilization");
  const bool show_net_stats = args.has("net-stats");
  mapreduce::SpeedModel speed;
  try {
    speed = mapreduce::SpeedModel::parse(
        args.get_or("speed-profile", "uniform"));
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (!speed.uniform()) {
    cfg.node_time_scale = speed.materialize(cfg.topology.num_nodes());
  }
  const double skew = args.get_double("skew", 0.0);
  if (skew < 0.0) return fail("--skew must be >= 0");
  if (skew > 0.0 && placement != "random") {
    return fail("--skew needs --placement random");
  }

  if (const auto unknown = args.unrecognized(); !unknown.empty()) {
    return fail("unknown flag --" + unknown.front());
  }

  if (cfg.map_slots_per_node < 0) return fail("--map-slots must be >= 0");
  if (cfg.reduce_slots_per_node < 0) return fail("--reduce-slots must be >= 0");
  if (cfg.block_size <= 0.0) return fail("--block-mb must be > 0");
  if (cfg.heartbeat_interval <= 0.0) return fail("--heartbeat must be > 0");
  if (rack_mbps <= 0.0) return fail("--bandwidth-mbps must be > 0");
  if (node_mbps < 0.0) return fail("--node-bandwidth-mbps must be >= 0");
  if (blocks < 1) return fail("--blocks must be >= 1");
  if (spec.num_reducers < 0) return fail("--reducers must be >= 0");
  if (spec.shuffle_ratio < 0.0) return fail("--shuffle must be >= 0");
  if (spec.map_time.mean <= 0.0 || spec.map_time.stddev < 0.0) {
    return fail("--map-time needs mean > 0 and stddev >= 0");
  }
  if (spec.reduce_time.mean <= 0.0 || spec.reduce_time.stddev < 0.0) {
    return fail("--reduce-time needs mean > 0 and stddev >= 0");
  }
  if (seeds < 1) return fail("--seeds must be >= 1");
  if (!jobs) return fail(runner::jobs_error());
  if (repair_concurrency < 0) return fail("--repair must be >= 0");
  if (cost_model.cross_rack_weight <= 0.0) {
    return fail("--cross-rack-cost must be > 0");
  }
  if (placement != "random" && placement != "roundrobin" &&
      placement != "replicated") {
    return fail("unknown --placement " + placement);
  }
  if (sources != "random" && sources != "samerack") {
    return fail("unknown --sources " + sources);
  }
  if (failure_kind != "none" && failure_kind != "node" &&
      failure_kind != "2node" && failure_kind != "rack") {
    return fail("unknown --failure " + failure_kind);
  }

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
  runner::ThreadPool pool(*jobs);
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
  // Malformed numeric flag values surface here from the Args getters.
  try {
    return run(util::Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
}
