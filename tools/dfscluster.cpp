// dfscluster — online long-horizon cluster lifecycle simulation: an
// open-loop job stream runs while nodes fail and get repaired mid-run, and
// steady-state latency percentiles are reported.
//
//   dfscluster --hours 2 --scheduler df --seed 1
//   dfscluster --hours 6 --arrivals pareto --interarrival 30 --mttf-hours 3
//              --scheduler lf --jsonl out/run.jsonl --csv out/timeline.csv
//
// Flags (defaults give the paper's §V-B cluster under moderate sustained
// load — about half the map slots busy):
//   --hours X             admission + failure window          [2]
//   --warmup X            warm-up cutoff in seconds           [600]
//   --scheduler S         lf | df | edf (or any dfsim name)   [df]
//   --seed N              base RNG seed                       [1]
//   --seeds N             independent runs (seed, seed+1, …)  [1]
//   --jobs N              worker threads for the seed sweep and the
//                         network's fair-share component recompute
//                         [all hardware threads; per-seed reports and JSONL
//                          records always come out in seed order and the
//                          recompute is order-insensitive, so output is
//                          byte-identical for any value]
//   --slaves N            total slave nodes; racks = N / nodes-per-rack
//                         [40 — the paper's §V-B cluster. The scale tier
//                          (10000 slaves, ~1M map tasks over a few hours)
//                          is a supported, benchmarked configuration; see
//                          bench/scale_regression and docs/performance.md]
//   --nodes-per-rack N    rack width when --slaves is given       [10]
//   --rack-gbps X         rack up/down link bandwidth, Gbps       [1]
//   --arrivals M          poisson | pareto | diurnal          [poisson]
//   --interarrival X      mean gap between jobs, seconds      [60]
//   --pareto-alpha X      Pareto shape (> 1)                  [1.5]
//   --diurnal-amplitude X rate swing in [0, 1)                [0.5]
//   --diurnal-period X    modulation period, seconds          [86400]
//   --blocks N            native blocks per job (= map tasks) [240]
//   --reducers N          reduce tasks per job                [10]
//   --mttf-hours X        per-node mean time to failure       [6]
//   --repair-delay X      mean failure-to-repair-start delay  [60]
//   --rack-failures X     fraction of failures taking a rack  [0]
//   --repair N            block repairs in flight per event   [4]
//   --sample-interval X   timeline sampling period, seconds   [60]
//   --speed-profile SPEC  per-slave speed profile: uniform |
//                         bimodal:FRAC,SLOWDOWN[,SEED] (FRAC of the slaves
//                         run SLOWDOWN x slower; SEED shuffles which ones) |
//                         vector:F0,F1,... (explicit per-node factors,
//                         tiled over the slaves)            [uniform]
//   --tenants N           tenant classes in the arrival stream; jobs are
//                         tagged round-robin by arrival share  [0 = single]
//   --tenant-shares W,..  per-class arrival shares (default: equal)
//   --tenant-scales S,..  per-class job-size multipliers (default: 1)
//   --admission P         job-queue ordering: fifo | fair |
//                         fair:w0,w1,... (per-tenant weights)  [fifo]
//   --skew S              Zipf exponent for block placement — rack 0 is the
//                         hottest, so degraded reads concentrate there
//                         [0 = the classic uniform random placement]
//   --jsonl PATH          write the full run as JSON lines
//   --net-stats           add a per-seed "net_stats" JSONL record with the
//                         network engine counters (flows, recompute/fast-path
//                         breakdown); off by default so existing JSONL
//                         consumers see byte-identical output
//   --recovery-stats      add mean_degraded_fetch_blocks (block equivalents
//                         per degraded read, fractional for sub-shard codes
//                         like hh) to the summary JSONL record and report;
//                         off by default for the same reason
//   --csv PATH            write the sampled timeline as CSV
//
// Fault layer (compute-failure fault tolerance; everything below is inert
// unless --faults is given):
//   --faults                   failures also kill the TaskTracker
//   --expiry X                 heartbeat-expiry multiplier          [10]
//   --attempt-failure-prob X   per-attempt transient failure prob   [0]
//   --max-attempts N           attempts per task before job abort   [4]
//   --retry-backoff X          base retry backoff, seconds          [1]
//   --blacklist-threshold N    failures before a slave is shunned   [3]
//   --blacklist-duration X     blacklist residence time, seconds    [300]
//   --attempts-csv PATH        write the attempt-level trace as CSV
//
// Hedged degraded reads + storage fault injection. Every degraded read runs
// through the fetch supervisor; these knobs only turn hedging, timeouts and
// injection on (--hedge > 0 or a nonzero straggler jitter/fail-prob). At the
// defaults the supervisor just downloads the planned sources in parallel
// and output stays byte-identical:
//   --hedge N                  extra hedge fetches per degraded read; the
//                              read completes on the first quorum able to
//                              reconstruct and cancels the losers    [0]
//   --hedge-quorum N           completed fetches required before a
//                              quorum may be declared (0 = coverage) [0]
//   --fetch-timeout X          per-fetch timeout, seconds (0 = none) [0]
//   --fetch-retries N          retries per source before falling back
//                              to an alternative recovery option     [2]
//   --fetch-backoff X          base retry backoff, seconds (doubles) [0.5]
//   --straggler-fraction X     fraction of nodes serving reads slowly
//                              (chosen evenly across racks)          [0]
//   --straggler-slowdown X     service-jitter multiplier on them     [4]
//   --straggler-jitter X       mean per-fetch service delay, seconds
//                              (0 disables jitter)                   [0]
//   --straggler-alpha X        Pareto tail shape for the jitter
//                              (0 = exponential; > 1 = Pareto)       [0]
//   --straggler-fail-prob X    transient fetch-failure probability   [0]

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dfs/cluster/simulation.h"
#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/runner/jobs_flag.h"
#include "dfs/runner/sweep.h"
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

int run(const util::Args& args) {
  if (args.has("help")) {
    std::cout
        << "dfscluster - online cluster lifecycle simulator\n"
           "  --hours X --warmup X --scheduler lf|df|edf\n"
           "  --seed N --seeds N --jobs N\n"
           "  --slaves N --nodes-per-rack N --rack-gbps X\n"
           "  --arrivals poisson|pareto|diurnal --interarrival X\n"
           "  --pareto-alpha X --diurnal-amplitude X --diurnal-period X\n"
           "  --blocks N --reducers N\n"
           "  --mttf-hours X --repair-delay X --rack-failures X --repair N\n"
           "  --sample-interval X --jsonl PATH --net-stats "
           "--recovery-stats --csv PATH\n"
           "  --speed-profile uniform|bimodal:F,S[,SEED]|vector:F0,...\n"
           "  --tenants N --tenant-shares W,... --tenant-scales S,...\n"
           "  --admission fifo|fair|fair:w0,... --skew S\n"
           "  --faults --expiry X --attempt-failure-prob X --max-attempts N\n"
           "  --retry-backoff X --blacklist-threshold N "
           "--blacklist-duration X\n"
           "  --attempts-csv PATH\n"
           "  --hedge N --hedge-quorum N --fetch-timeout X "
           "--fetch-retries N --fetch-backoff X\n"
           "  --straggler-fraction X --straggler-slowdown X "
           "--straggler-jitter X\n"
           "  --straggler-alpha X --straggler-fail-prob X\n";
    return 0;
  }

  cluster::ClusterOptions opts;
  opts.horizon = args.get_double("hours", 2.0) * 3600.0;
  opts.warmup = args.get_double("warmup", 600.0);
  opts.sample_interval = args.get_double("sample-interval", 60.0);

  // Cluster size. The default keeps the paper's 4x10 §V-B topology
  // byte-identical; --slaves rebuilds the topology at any scale (the 10k
  // tier is the benchmarked ceiling, not a hard limit).
  const int nodes_per_rack = args.get_int("nodes-per-rack", 10);
  const int slaves =
      args.get_int("slaves", opts.config.topology.num_nodes());
  const double rack_gbps = args.get_double("rack-gbps", 1.0);
  if (nodes_per_rack < 1) return fail("--nodes-per-rack must be >= 1");
  if (slaves < 1) return fail("--slaves must be >= 1");
  if (slaves % nodes_per_rack != 0) {
    return fail("--slaves must be a multiple of --nodes-per-rack");
  }
  if (rack_gbps <= 0.0) return fail("--rack-gbps must be > 0");
  opts.config.topology =
      net::Topology(slaves / nodes_per_rack, nodes_per_rack);
  opts.config.links.rack_up = util::gigabits_per_sec(rack_gbps);
  opts.config.links.rack_down = util::gigabits_per_sec(rack_gbps);

  opts.arrivals.mean_interarrival = args.get_double("interarrival", 60.0);
  opts.arrivals.pareto_alpha = args.get_double("pareto-alpha", 1.5);
  opts.arrivals.diurnal_amplitude = args.get_double("diurnal-amplitude", 0.5);
  opts.arrivals.diurnal_period = args.get_double("diurnal-period", 86400.0);
  opts.arrivals.job.num_blocks = args.get_int("blocks", 240);
  opts.arrivals.job.num_reducers = args.get_int("reducers", 10);
  opts.arrivals.job.skew = args.get_double("skew", 0.0);
  if (opts.arrivals.job.skew < 0.0) return fail("--skew must be >= 0");

  // Tenant classes: --tenants N makes N equal classes; the share/scale
  // lists override per class and must carry exactly one value per tenant.
  const int tenants = args.get_int("tenants", 0);
  if (args.has("tenants") && tenants < 1) return fail("--tenants must be >= 1");
  const auto tenant_shares = args.get("tenant-shares");
  const auto tenant_scales = args.get("tenant-scales");
  if ((tenant_shares || tenant_scales) && tenants < 1) {
    return fail("--tenant-shares / --tenant-scales require --tenants N");
  }
  if (tenants >= 1) {
    opts.arrivals.tenants.assign(static_cast<std::size_t>(tenants),
                                 cluster::TenantClass{});
    if (tenant_shares) {
      const auto shares =
          util::parse_double_list("--tenant-shares", *tenant_shares);
      if (static_cast<int>(shares.size()) != tenants) {
        return fail("--tenant-shares needs exactly --tenants values");
      }
      for (std::size_t c = 0; c < shares.size(); ++c) {
        if (shares[c] <= 0.0) return fail("--tenant-shares must be > 0");
        opts.arrivals.tenants[c].arrival_share = shares[c];
      }
    }
    if (tenant_scales) {
      const auto scales =
          util::parse_double_list("--tenant-scales", *tenant_scales);
      if (static_cast<int>(scales.size()) != tenants) {
        return fail("--tenant-scales needs exactly --tenants values");
      }
      for (std::size_t c = 0; c < scales.size(); ++c) {
        if (scales[c] <= 0.0) return fail("--tenant-scales must be > 0");
        opts.arrivals.tenants[c].job_scale = scales[c];
      }
    }
  }

  opts.lifecycle.node_mttf_hours = args.get_double("mttf-hours", 6.0);
  opts.lifecycle.mean_repair_delay = args.get_double("repair-delay", 60.0);
  opts.lifecycle.rack_failure_fraction = args.get_double("rack-failures", 0.0);
  opts.lifecycle.repair_concurrency = args.get_int("repair", 4);

  mapreduce::FaultConfig& fault = opts.config.fault;
  fault.compute_failures = args.has("faults");
  fault.expiry_multiplier = args.get_double("expiry", 10.0);
  fault.attempt_failure_prob = args.get_double("attempt-failure-prob", 0.0);
  fault.max_attempts = args.get_int("max-attempts", 4);
  fault.retry_backoff = args.get_double("retry-backoff", 1.0);
  fault.blacklist_threshold = args.get_int("blacklist-threshold", 3);
  fault.blacklist_duration = args.get_double("blacklist-duration", 300.0);

  mapreduce::HedgeConfig& hedge = opts.config.hedge;
  hedge.extra_sources = args.get_int("hedge", 0);
  hedge.min_quorum = args.get_int("hedge-quorum", 0);
  mapreduce::FetchPolicy& fetch = opts.config.fetch;
  fetch.timeout = args.get_double("fetch-timeout", 0.0);
  fetch.max_retries = args.get_int("fetch-retries", 2);
  fetch.retry_backoff = args.get_double("fetch-backoff", 0.5);
  mapreduce::StragglerConfig& straggler = opts.config.straggler;
  straggler.fraction = args.get_double("straggler-fraction", 0.0);
  straggler.slowdown = args.get_double("straggler-slowdown", 4.0);
  straggler.service_mean = args.get_double("straggler-jitter", 0.0);
  straggler.pareto_alpha = args.get_double("straggler-alpha", 0.0);
  straggler.fail_prob = args.get_double("straggler-fail-prob", 0.0);

  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int seeds = args.get_int("seeds", 1);
  const auto jobs = runner::jobs_from_args(args);
  const std::string scheduler_flag = args.get_or("scheduler", "df");
  const auto jsonl_path = args.get("jsonl");
  const bool net_stats = args.has("net-stats");
  const bool recovery_stats = args.has("recovery-stats");
  const auto csv_path = args.get("csv");
  const auto attempts_csv_path = args.get("attempts-csv");

  if (seeds < 1) return fail("--seeds must be >= 1");
  if (!jobs) return fail(runner::jobs_error());
  // Each simulation also water-fills independent congestion components on
  // --jobs threads (a dedicated pool per cell; the recompute is
  // order-insensitive, so this never changes output). Single-seed runs —
  // the scale tier's shape — get the full thread budget; multi-seed sweeps
  // already keep every core busy with whole cells, so they stay serial
  // inside the network rather than oversubscribing jobs^2 threads.
  opts.net_jobs = seeds == 1 ? *jobs : 1;
  if (opts.horizon <= 0.0) return fail("--hours must be > 0");
  if (opts.warmup < 0.0) return fail("--warmup must be >= 0");
  if (opts.sample_interval <= 0.0) return fail("--sample-interval must be > 0");
  if (opts.arrivals.mean_interarrival <= 0.0) {
    return fail("--interarrival must be > 0");
  }
  if (opts.arrivals.pareto_alpha <= 1.0) {
    return fail("--pareto-alpha must be > 1");
  }
  if (opts.arrivals.diurnal_amplitude < 0.0 ||
      opts.arrivals.diurnal_amplitude >= 1.0) {
    return fail("--diurnal-amplitude must be in [0, 1)");
  }
  if (opts.arrivals.diurnal_period <= 0.0) {
    return fail("--diurnal-period must be > 0");
  }
  if (opts.arrivals.job.num_blocks < 1) return fail("--blocks must be >= 1");
  if (opts.arrivals.job.num_reducers < 0) {
    return fail("--reducers must be >= 0");
  }
  if (opts.lifecycle.node_mttf_hours <= 0.0) {
    return fail("--mttf-hours must be > 0");
  }
  if (opts.lifecycle.mean_repair_delay < 0.0) {
    return fail("--repair-delay must be >= 0");
  }
  if (opts.lifecycle.rack_failure_fraction < 0.0 ||
      opts.lifecycle.rack_failure_fraction > 1.0) {
    return fail("--rack-failures must be in [0, 1]");
  }
  if (opts.lifecycle.repair_concurrency < 1) {
    return fail("--repair must be >= 1");
  }
  if (fault.expiry_multiplier <= 0.0) return fail("--expiry must be > 0");
  if (fault.attempt_failure_prob < 0.0 || fault.attempt_failure_prob > 1.0) {
    return fail("--attempt-failure-prob must be in [0, 1]");
  }
  if (fault.max_attempts < 1) return fail("--max-attempts must be >= 1");
  if (fault.retry_backoff < 0.0) return fail("--retry-backoff must be >= 0");
  if (fault.blacklist_duration < 0.0) {
    return fail("--blacklist-duration must be >= 0");
  }
  if (hedge.extra_sources < 0) return fail("--hedge must be >= 0");
  if (hedge.min_quorum < 0) return fail("--hedge-quorum must be >= 0");
  if (fetch.timeout < 0.0) return fail("--fetch-timeout must be >= 0");
  if (fetch.max_retries < 0) return fail("--fetch-retries must be >= 0");
  if (fetch.retry_backoff < 0.0) return fail("--fetch-backoff must be >= 0");
  if (straggler.fraction < 0.0 || straggler.fraction > 1.0) {
    return fail("--straggler-fraction must be in [0, 1]");
  }
  if (straggler.slowdown < 1.0) return fail("--straggler-slowdown must be >= 1");
  if (straggler.service_mean < 0.0) {
    return fail("--straggler-jitter must be >= 0");
  }
  if (straggler.pareto_alpha != 0.0 && straggler.pareto_alpha <= 1.0) {
    return fail("--straggler-alpha must be 0 (exponential) or > 1");
  }
  if (straggler.fail_prob < 0.0 || straggler.fail_prob >= 1.0) {
    // < 1 strictly: a certain failure would retry forever.
    return fail("--straggler-fail-prob must be in [0, 1)");
  }

  std::unique_ptr<core::Scheduler> scheduler;
  try {
    opts.arrivals.model = cluster::parse_arrival_model(
        args.get_or("arrivals", "poisson"));
    // Negative fractions, slowdowns below 1, bad weights etc. are rejected
    // here, before any sweep cell starts.
    opts.speed =
        mapreduce::SpeedModel::parse(args.get_or("speed-profile", "uniform"));
    opts.admission = args.get_or("admission", "fifo");
    if (opts.admission != "fifo") {
      core::make_admission_policy(opts.admission);  // validate the spec
    }
    scheduler = core::make_scheduler(scheduler_name(scheduler_flag));
  } catch (const std::exception& e) {
    return fail(e.what());
  }

  if (const auto unknown = args.unrecognized(); !unknown.empty()) {
    return fail("unknown flag --" + unknown.front());
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
  runner::ThreadPool pool(*jobs);
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
  // Malformed numeric flag values surface here from the Args getters.
  try {
    return run(util::Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
}
