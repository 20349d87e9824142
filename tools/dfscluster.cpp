// dfscluster — online long-horizon cluster lifecycle simulation: an
// open-loop job stream runs while nodes fail and get repaired mid-run, and
// steady-state latency percentiles are reported.
//
//   dfscluster --hours 2 --scheduler df --seed 1
//   dfscluster --hours 6 --arrivals pareto --interarrival 30 --mttf-hours 3
//              --scheduler lf --jsonl out/run.jsonl --csv out/timeline.csv
//
// `dfscluster --help` lists every flag with its range and default (the
// paper's §V-B cluster under moderate sustained load — about half the map
// slots busy). The README's "Online cluster lifecycle" section explains the
// fault layer, hedged reads, tenancy and skew knobs; every one of them is
// inert at its default.

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dfs/cluster/simulation.h"
#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/runner/sweep.h"
#include "dfs/runner/thread_pool.h"
#include "dfs/util/args.h"
#include "dfs/util/table.h"

using namespace dfs;

namespace {

int fail(const std::string& message) {
  std::cerr << "dfscluster: " << message << "\n";
  return 1;
}

/// Friendly lowercase aliases on top of core::make_scheduler's names.
std::string scheduler_name(const std::string& flag) {
  if (flag == "lf") return "LF";
  if (flag == "df") return "BDF";  // the paper's basic degraded-first
  if (flag == "edf") return "EDF";
  return flag;
}

int run(int argc, char** argv) {
  using util::above, util::at_least, util::in_half_open, util::in_range;
  cluster::ClusterOptions opts;
  cluster::ArrivalOptions& arr = opts.arrivals;
  cluster::LifecycleOptions& life = opts.lifecycle;
  mapreduce::FaultConfig& fault = opts.config.fault;
  mapreduce::HedgeConfig& hedge = opts.config.hedge;
  mapreduce::FetchPolicy& fetch = opts.config.fetch;
  mapreduce::StragglerConfig& slow = opts.config.straggler;
  double hours = opts.horizon / 3600.0, rack_gbps = 1.0;
  // The default keeps the paper's 4x10 §V-B topology; --slaves rebuilds it
  // at any scale (the 10k tier is the benchmarked ceiling, not a limit).
  int slaves = opts.config.topology.num_nodes(), rack_width = 10;
  int tenants = 0, seeds = 1, jobs = runner::default_jobs();
  std::uint64_t seed = 1;
  std::vector<double> shares, scales;
  std::string scheduler_flag = "df", arrivals = to_string(arr.model);
  std::string speed = opts.speed.describe();
  std::optional<std::string> jsonl_path, csv_path, attempts_csv_path;
  bool net_stats = false, recovery_stats = false;

  util::FlagTable f("dfscluster", "online cluster lifecycle simulator");
  f.add("hours", &hours, "admission + failure window, hours", above(0));
  f.add("warmup", &opts.warmup, "warm-up cutoff, seconds", at_least(0));
  f.add("scheduler", &scheduler_flag, "lf | df | edf, or any dfsim name");
  f.add("seed", &seed, "base RNG seed");
  f.add("seeds", &seeds, "runs: seed, seed+1, ...", at_least(1));
  f.add("jobs", &jobs, "seed-sweep worker threads (output is identical)",
        at_least(1));
  f.add("slaves", &slaves, "total slave nodes", at_least(1));
  f.add("nodes-per-rack", &rack_width, "slaves per rack", at_least(1));
  f.add("rack-gbps", &rack_gbps, "rack up/down bandwidth, Gbps", above(0));
  f.add("arrivals", &arrivals, "arrival model",
        util::one_of({"poisson", "pareto", "diurnal"}));
  f.add("interarrival", &arr.mean_interarrival, "mean job gap, s", above(0));
  f.add("pareto-alpha", &arr.pareto_alpha, "Pareto shape", above(1));
  f.add("diurnal-amplitude", &arr.diurnal_amplitude, "diurnal rate swing",
        in_half_open(0, 1));
  f.add("diurnal-period", &arr.diurnal_period, "diurnal period, s", above(0));
  f.add("blocks", &arr.job.num_blocks, "map tasks per job", at_least(1));
  f.add("reducers", &arr.job.num_reducers, "reduce tasks per job",
        at_least(0));
  f.add("mttf-hours", &life.node_mttf_hours, "per-node MTTF, hours",
        above(0));
  f.add("repair-delay", &life.mean_repair_delay,
        "mean failure-to-repair delay, s", at_least(0));
  f.add("rack-failures", &life.rack_failure_fraction,
        "share of failures that take a whole rack", in_range(0, 1));
  f.add("repair", &life.repair_concurrency,
        "block repairs in flight per failure", at_least(1));
  f.add("sample-interval", &opts.sample_interval,
        "timeline sampling period, s", above(0));
  f.add("speed-profile", &speed,
        "uniform | bimodal:FRAC,SLOWDOWN[,SEED] | vector:F0,F1,...");
  f.add("tenants", &tenants, "tenant classes (0 = untagged)", at_least(1));
  f.add("tenant-shares", &shares, "arrival share per tenant", above(0));
  f.add("tenant-scales", &scales, "job-size factor per tenant", above(0));
  f.add("admission", &opts.admission, "fifo | fair | fair:w0,w1,...");
  f.add("skew", &arr.job.skew, "Zipf exponent of placement", at_least(0));
  f.add("jsonl", &jsonl_path, "write the full run as JSON lines");
  f.add("net-stats", &net_stats, "add net_stats JSONL records");
  f.add("recovery-stats", &recovery_stats, "report degraded fetch volume");
  f.add("csv", &csv_path, "write the sampled timeline as CSV");
  f.add("faults", &fault.compute_failures, "failures also kill TaskTrackers");
  f.add("expiry", &fault.expiry_multiplier,
        "missed heartbeats before a slave is declared dead", above(0));
  f.add("attempt-failure-prob", &fault.attempt_failure_prob,
        "transient crash probability per attempt", in_range(0, 1));
  f.add("max-attempts", &fault.max_attempts,
        "attempts per task before its job aborts", at_least(1));
  f.add("retry-backoff", &fault.retry_backoff,
        "base attempt retry delay, s (doubles per failure)", at_least(0));
  f.add("blacklist-threshold", &fault.blacklist_threshold,
        "failures before a slave is shunned (0 = off)");
  f.add("blacklist-duration", &fault.blacklist_duration,
        "how long a blacklisted slave gets no work, s", at_least(0));
  f.add("attempts-csv", &attempts_csv_path, "write the attempt trace as CSV");
  f.add("hedge", &hedge.extra_sources, "hedge fetches per read", at_least(0));
  f.add("hedge-quorum", &hedge.min_quorum,
        "fetches a read must complete (0 = coverage decides)", at_least(0));
  f.add("fetch-timeout", &fetch.timeout, "per-fetch timeout, s (0 = none)",
        at_least(0));
  f.add("fetch-retries", &fetch.max_retries,
        "retries per source before replanning", at_least(0));
  f.add("fetch-backoff", &fetch.retry_backoff, "base retry delay, s",
        at_least(0));
  f.add("straggler-fraction", &slow.fraction, "slow-node share",
        in_range(0, 1));
  f.add("straggler-slowdown", &slow.slowdown,
        "service-jitter multiplier on slow nodes", at_least(1));
  f.add("straggler-jitter", &slow.service_mean,
        "mean per-fetch service delay, s", at_least(0));
  f.add("straggler-alpha", &slow.pareto_alpha, "jitter tail: 0 or > 1");
  f.add("straggler-fail-prob", &slow.fail_prob,
        "transient fetch-failure probability", in_half_open(0, 1));
  f.add_help();
  f.parse_or_exit(argc, argv, 1);
  if (slaves % rack_width != 0) {
    return fail("--slaves must be a multiple of --nodes-per-rack");
  }
  const auto count = static_cast<std::size_t>(tenants);
  if ((!shares.empty() && shares.size() != count) ||
      (!scales.empty() && scales.size() != count)) {
    return fail("--tenant-shares/--tenant-scales need --tenants values");
  }
  if (slow.pareto_alpha != 0.0 && slow.pareto_alpha <= 1.0) {
    return fail("--straggler-alpha must be 0 (exponential) or > 1");
  }
  arr.model = cluster::parse_arrival_model(arrivals);
  opts.speed = mapreduce::SpeedModel::parse(speed);
  core::make_admission_policy(opts.admission);  // validate the spec
  core::make_scheduler(scheduler_name(scheduler_flag));  // validate the name
  opts.horizon = hours * 3600.0;
  opts.config.topology = net::Topology(slaves / rack_width, rack_width);
  opts.config.links.rack_up = util::gigabits_per_sec(rack_gbps);
  opts.config.links.rack_down = util::gigabits_per_sec(rack_gbps);
  // --tenants N makes N equal classes; the lists override per class.
  arr.tenants.resize(count);
  for (std::size_t c = 0; c < count; ++c) {
    if (!shares.empty()) arr.tenants[c].arrival_share = shares[c];
    if (!scales.empty()) arr.tenants[c].job_scale = scales[c];
  }
  // Each seed is one sweep cell; every cell owns its scheduler and
  // simulation and renders its report into a string, so the per-seed blocks
  // (and the JSONL records appended below) come out in seed order whatever
  // --jobs is — byte-identical output for any thread count.
  struct SeedOutcome {
    std::string report;
    std::string warn;
    cluster::ClusterResult result;
  };
  runner::ThreadPool pool(jobs);
  std::vector<SeedOutcome> outcomes;
  try {
    outcomes = runner::sweep(
        pool, static_cast<std::size_t>(seeds), [&](std::size_t cell) {
          const std::uint64_t cell_seed = seed + cell;
          const auto sched = core::make_scheduler(
              scheduler_name(scheduler_flag));
          cluster::ClusterSimulation simulation(opts, *sched, cell_seed);
          SeedOutcome out;
          out.result = simulation.run();
          out.result.report_net_stats = net_stats;
          out.result.report_recovery_stats = recovery_stats;
          const auto& s = out.result.summary;
          std::ostringstream rep;
          rep << "dfscluster: scheduler=" << sched->name()
              << " arrivals=" << to_string(opts.arrivals.model)
              << " horizon=" << util::Table::num(opts.horizon / 3600.0, 2)
              << "h warmup=" << util::Table::num(opts.warmup, 0)
              << "s seed=" << cell_seed << '\n';
          // Extra config line only when some heterogeneity / tenancy /
          // skew knob is active, so default reports keep their old shape.
          if (opts.admission != "fifo" || !opts.speed.uniform() ||
              !opts.arrivals.tenants.empty() ||
              opts.arrivals.job.skew > 0.0) {
            rep << "config: admission=" << opts.admission
                << " speed=" << opts.speed.describe()
                << " tenants=" << opts.arrivals.tenants.size()
                << " skew=" << util::Table::num(opts.arrivals.job.skew, 2)
                << '\n';
          }
          rep << "jobs: " << s.jobs_submitted << " submitted, "
              << s.jobs_completed << " completed, " << s.jobs_measured
              << " in the measurement window\n";
          util::Table table({"metric", "value"});
          table.add_row({"latency samples",
                         std::to_string(s.latency_samples)});
          table.add_row({"latency p50 (s)", util::Table::num(s.latency_p50, 1)});
          table.add_row({"latency p95 (s)", util::Table::num(s.latency_p95, 1)});
          table.add_row({"latency p99 (s)", util::Table::num(s.latency_p99, 1)});
          table.add_row({"latency mean (s)",
                         util::Table::num(s.latency_mean, 1)});
          table.add_row({"job runtime mean (s)",
                         util::Table::num(s.mean_job_runtime, 1)});
          table.add_row({"degraded task fraction",
                         util::Table::pct(s.degraded_task_fraction * 100.0, 2)});
          if (recovery_stats) {
            table.add_row({"degraded fetch (blocks/read)",
                           util::Table::num(s.mean_degraded_fetch_blocks, 2)});
          }
          if (opts.config.fetch_supervised()) {
            table.add_row({"degraded read p50 (s)",
                           util::Table::num(s.degraded_read_p50, 2)});
            table.add_row({"degraded read p99 (s)",
                           util::Table::num(s.degraded_read_p99, 2)});
            table.add_row({"degraded read p999 (s)",
                           util::Table::num(s.degraded_read_p999, 2)});
            table.add_row({"degraded read samples",
                           std::to_string(s.degraded_read_samples)});
            table.add_row({"fetch p99 (s)", util::Table::num(s.fetch_p99, 2)});
            table.add_row({"fetch samples",
                           std::to_string(s.fetch_samples)});
          }
          table.add_row({"failures injected",
                         std::to_string(s.failures_injected) + " (" +
                             std::to_string(s.rack_failures) + " rack)"});
          table.add_row({"blocks repaired", std::to_string(s.blocks_repaired)});
          table.add_row({"max repair backlog",
                         std::to_string(s.max_repair_backlog)});
          table.add_row({"rack downlink utilization",
                         util::Table::pct(s.mean_rack_down_utilization * 100.0,
                                          1)});
          rep << table;
          if (!opts.arrivals.tenants.empty()) {
            util::Table tt({"tenant", "measured", "p50 (s)", "p95 (s)",
                            "p99 (s)", "mean (s)"});
            for (const auto& t : s.tenants) {
              tt.add_row({std::to_string(t.tenant),
                          std::to_string(t.jobs_measured),
                          util::Table::num(t.latency_p50, 1),
                          util::Table::num(t.latency_p95, 1),
                          util::Table::num(t.latency_p99, 1),
                          util::Table::num(t.latency_mean, 1)});
            }
            rep << "per-tenant latency:\n" << tt;
          }
          if (opts.config.fault.compute_failures) {
            const auto& run = out.result.run;
            rep << "faults: "
                << run.count_map_attempts(mapreduce::AttemptOutcome::kKilled) +
                       run.count_reduce_attempts(
                           mapreduce::AttemptOutcome::kKilled)
                << " attempts killed, "
                << run.count_map_attempts(mapreduce::AttemptOutcome::kFailed) +
                       run.count_reduce_attempts(
                           mapreduce::AttemptOutcome::kFailed)
                << " failed, " << run.blacklist_events
                << " blacklist events, " << run.jobs_failed()
                << " jobs aborted\n";
            rep << "faults: " << run.detections.size()
                << " slave deaths detected, mean detection latency "
                << util::Table::num(run.mean_detection_latency(), 1) << " s\n";
          }
          if (opts.config.fetch_supervised()) {
            const auto& h = s.hedge;
            rep << "hedging: " << h.reads_started << " reads supervised, "
                << h.hedges_launched << " hedges launched, "
                << h.losers_cancelled << " losers cancelled, "
                << h.fetch_timeouts << " timeouts, " << h.transient_failures
                << " transient failures, " << h.fetch_retries << " retries, "
                << h.fallback_replans << " fallback replans, "
                << h.last_resort_reads << " last-resort reads\n";
          }
          std::ostringstream warn;
          if (s.blocks_unrecoverable > 0) {
            warn << "warning: " << s.blocks_unrecoverable
                 << " blocks were unrecoverable (data loss)";
            if (seeds > 1) warn << " (seed " << cell_seed << ")";
            warn << '\n';
          }
          if (s.latency_samples > 0 && s.latency_samples < 10) {
            warn << "warning: latency p99 rests on only " << s.latency_samples
                 << " samples";
            if (seeds > 1) warn << " (seed " << cell_seed << ")";
            warn << '\n';
          }
          if (opts.config.fetch_supervised() && s.degraded_read_samples > 0 &&
              s.degraded_read_samples < 10) {
            warn << "warning: degraded-read p99 rests on only "
                 << s.degraded_read_samples << " samples";
            if (seeds > 1) warn << " (seed " << cell_seed << ")";
            warn << '\n';
          }
          out.warn = warn.str();
          out.report = rep.str();
          return out;
        });
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  for (const auto& out : outcomes) {
    std::cout << out.report;
    std::cerr << out.warn;
  }

  if (jsonl_path) {
    std::ofstream out(*jsonl_path);
    if (!out) return fail("cannot write " + *jsonl_path);
    // One record stream, seeds concatenated in seed order.
    for (const auto& outcome : outcomes) {
      cluster::write_cluster_jsonl(out, outcome.result);
    }
    std::cout << "JSONL run record written to " << *jsonl_path << '\n';
  }
  if (csv_path) {
    std::ofstream out(*csv_path);
    if (!out) return fail("cannot write " + *csv_path);
    cluster::write_timeline_csv(out, outcomes.front().result);
    std::cout << "timeline CSV written to " << *csv_path;
    if (seeds > 1) std::cout << " (first seed only)";
    std::cout << '\n';
  }
  if (attempts_csv_path) {
    std::ofstream out(*attempts_csv_path);
    if (!out) return fail("cannot write " + *attempts_csv_path);
    mapreduce::write_attempt_csv(out, outcomes.front().result.run);
    std::cout << "attempt trace CSV written to " << *attempts_csv_path;
    if (seeds > 1) std::cout << " (first seed only)";
    std::cout << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The flag table reports its own errors; the scheduler, speed-profile
  // and admission spec parsers throw theirs to here.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
}
