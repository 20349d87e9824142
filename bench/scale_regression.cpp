// scale_regression — machine-readable performance harness for the 10k-slave
// scale tier. Where perf_regression guards micro hot paths (kernel, network
// engine, coding kernels), this harness runs the whole online cluster stack
// — arrivals, Master + phase engines, fair-share network, lifecycle — at two
// sizes far beyond the paper's 12-slave testbed and reports end-to-end
// events/sec, wall time, and peak RSS:
//
//   * quick:  2,000 slaves (200 racks x 10), ~300 jobs / ~76k map tasks over
//             a 300 s admission window — CI-sized, the gated workload.
//   * full:  10,000 slaves (1,000 racks x 10), ~2,100 jobs / ~1.07M map
//             tasks over a 840 s admission window — the committed
//             BENCH_scale.json macro number.
//
// The scale cluster is the paper's §V-B shape scaled up: 10 nodes per rack,
// 4 map + 1 reduce slots, 128 MiB blocks, 3 s heartbeats, but with 40 Gbps
// rack uplinks (a 1 Gbps top-of-rack link cannot feed a 10k-node cluster
// whose data locality is necessarily thin — ~5% of nodes hold any given
// job's blocks — and modern clusters of this size run 25–100 Gbps fabrics).
// Node MTTF is scaled so a handful of failures land inside the window, the
// same regime as the paper-scale defaults.
//
// The JSON report goes to --out (default BENCH_scale.json). With --baseline
// PATH the run compares its events/sec and peak RSS against the committed
// baseline and exits 1 if any section's events/sec fell, or its peak RSS
// grew, by more than --max-regress (default 0.25) — the CI scale gate.
// With --prev PATH (a report produced by this same harness on an older
// build) the full section embeds that run's events/sec, wall time and peak
// RSS and the resulting speedup, recording pre/post comparisons measured by
// the same harness on the same hardware.
//
// Usage: scale_regression [--quick] [--out PATH] [--baseline PATH]
//        [--max-regress X] [--prev PATH] [--seed N]

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "dfs/cluster/simulation.h"
#include "dfs/core/scheduler.h"
#include "dfs/net/topology.h"
#include "dfs/util/args.h"

using namespace dfs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process high-water RSS in MiB (ru_maxrss is KiB on Linux). Monotone over
/// the process lifetime, so run the big case last and read after each case.
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ScaleCase {
  const char* name;
  int racks;
  int nodes_per_rack;
  int blocks_per_job;        ///< map tasks per job
  double mean_interarrival;  ///< seconds between submissions
  double horizon;            ///< admission window (jobs still drain after)
};

/// The §V-B cluster shape scaled to `racks` x `nodes_per_rack`, with the
/// rack fabric upgraded to 40 Gbps (see file comment) and node MTTF scaled
/// so roughly ten failure/repair cycles land inside the full window.
cluster::ClusterOptions scale_options(const ScaleCase& c) {
  cluster::ClusterOptions opts;
  opts.config.topology = net::Topology(c.racks, c.nodes_per_rack);
  opts.config.links.rack_up = util::gigabits_per_sec(40.0);
  opts.config.links.rack_down = util::gigabits_per_sec(40.0);
  opts.arrivals.job.num_blocks = c.blocks_per_job;
  opts.arrivals.mean_interarrival = c.mean_interarrival;
  opts.arrivals.horizon = c.horizon;
  opts.horizon = c.horizon;
  opts.warmup = c.horizon / 10.0;
  // 240 h per-node MTTF: ~10 expected failures over the full case's window
  // (10,000 nodes x 840 s), a paper-regime failure load rather than the
  // constant churn the 6 h paper-scale default would give at 10k nodes.
  opts.lifecycle.node_mttf_hours = 240.0;
  return opts;
}

struct CaseResult {
  int slaves = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  long long map_task_records = 0;
  long long events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double peak_rss_mb = 0.0;
};

CaseResult run_case(const ScaleCase& c, std::uint64_t seed) {
  const auto opts = scale_options(c);
  const auto scheduler = core::make_scheduler("BDF");
  std::cerr << "scale " << c.name << ": " << c.racks * c.nodes_per_rack
            << " slaves, ~" << static_cast<int>(c.horizon / c.mean_interarrival)
            << " jobs x " << c.blocks_per_job << " maps, horizon " << c.horizon
            << " s\n";
  cluster::ClusterSimulation simulation(opts, *scheduler, seed);
  const auto start = Clock::now();
  const auto result = simulation.run();
  CaseResult out;
  out.wall_seconds = seconds_since(start);
  out.slaves = c.racks * c.nodes_per_rack;
  out.jobs_submitted = result.summary.jobs_submitted;
  out.jobs_completed = result.summary.jobs_completed;
  out.map_task_records = static_cast<long long>(result.run.map_tasks.size());
  out.events = static_cast<long long>(simulation.simulator().events_executed());
  out.events_per_sec = out.wall_seconds > 0.0
                           ? static_cast<double>(out.events) / out.wall_seconds
                           : 0.0;
  out.peak_rss_mb = peak_rss_mb();
  std::cerr << "scale " << c.name << ": " << out.events << " events in "
            << std::fixed << std::setprecision(1) << out.wall_seconds << " s ("
            << std::setprecision(0) << out.events_per_sec
            << " events/sec), peak RSS " << out.peak_rss_mb << " MiB\n";
  return out;
}

void write_section(std::ostringstream& json, const char* name,
                   const CaseResult& r) {
  json << "  \"" << name << "\": {\n"
       << "    \"slaves\": " << r.slaves << ",\n"
       << "    \"jobs_submitted\": " << r.jobs_submitted << ",\n"
       << "    \"jobs_completed\": " << r.jobs_completed << ",\n"
       << "    \"map_task_records\": " << r.map_task_records << ",\n"
       << "    \"events\": " << r.events << ",\n"
       << "    \"wall_seconds\": " << r.wall_seconds << ",\n"
       << "    \"events_per_sec\": " << r.events_per_sec << ",\n"
       << "    \"peak_rss_mb\": " << r.peak_rss_mb;
}

/// Crude but sufficient extraction of `"key": <number>` following
/// `"section"` in a JSON report this harness wrote. Returns 0 when absent.
double extract_number(const std::string& json, const std::string& section,
                      const std::string& key) {
  const auto sec = json.find('"' + section + '"');
  if (sec == std::string::npos) return 0.0;
  const auto pos = json.find('"' + key + "\":", sec);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
}

int usage_error(const std::string& message) {
  std::cerr << "scale_regression: " << message << "\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "scale_regression - 10k-slave cluster macro perf harness\n"
                 "  --quick            2k-slave case only (CI-sized)\n"
                 "  --out PATH         JSON report path [BENCH_scale.json]\n"
                 "  --baseline PATH    compare events/sec and peak RSS against\n"
                 "                     a committed report; exit 1 on regression\n"
                 "  --max-regress X    allowed fractional regression [0.25]\n"
                 "  --prev PATH        embed a prior report's full-case\n"
                 "                     events/sec, wall time and peak RSS +\n"
                 "                     the speedup over it\n"
                 "  --seed N           arrival/placement seed [1]\n";
    return 0;
  }
  const bool quick = args.has("quick");
  const std::string out_path = args.get_or("out", "BENCH_scale.json");
  const auto baseline_path = args.get("baseline");
  const auto prev_path = args.get("prev");
  double max_regress = 0.0;
  std::uint64_t seed = 0;
  try {
    max_regress = args.get_double("max-regress", 0.25);
    seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  if (max_regress < 0.0 || max_regress >= 1.0) {
    return usage_error("--max-regress must be in [0, 1)");
  }
  if (const auto unknown = args.unrecognized(); !unknown.empty()) {
    return usage_error("unknown flag --" + unknown.front());
  }

  // Quick first so the full case's peak-RSS reading is not polluted by a
  // later, smaller allocation pattern (ru_maxrss is a process high-water).
  // Block counts are multiples of k=15 (the (20,15) archive/job code).
  const ScaleCase quick_case{"quick", 200, 10, 255, 1.0, 300.0};
  const ScaleCase full_case{"full", 1000, 10, 510, 0.4, 840.0};

  const CaseResult quick_result = run_case(quick_case, seed);
  CaseResult full_result;
  if (!quick) full_result = run_case(full_case, seed);

  double prev_full_rate = 0.0;
  double prev_full_wall = 0.0;
  double prev_full_rss = 0.0;
  if (prev_path) {
    std::string prev;
    if (!read_file(*prev_path, prev)) {
      return usage_error("cannot read prev report " + *prev_path);
    }
    prev_full_rate = extract_number(prev, "scale_full", "events_per_sec");
    if (prev_full_rate <= 0.0) {
      return usage_error("prev report has no scale_full events_per_sec");
    }
    prev_full_wall = extract_number(prev, "scale_full", "wall_seconds");
    prev_full_rss = extract_number(prev, "scale_full", "peak_rss_mb");
  }

  std::ostringstream json;
  json << std::setprecision(10);
  json << "{\n"
       << "  \"schema\": 1,\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << seed << ",\n";
  write_section(json, "scale_quick", quick_result);
  if (!quick) {
    json << "\n  },\n";
    write_section(json, "scale_full", full_result);
    if (prev_full_rate > 0.0) {
      json << ",\n"
           << "    \"baseline_events_per_sec\": " << prev_full_rate << ",\n"
           << "    \"baseline_wall_seconds\": " << prev_full_wall << ",\n"
           << "    \"baseline_peak_rss_mb\": " << prev_full_rss << ",\n"
           << "    \"speedup_vs_baseline\": "
           << full_result.events_per_sec / prev_full_rate;
    }
  }
  json << "\n  }\n}\n";

  std::ofstream out(out_path);
  if (!out) return usage_error("cannot write " + out_path);
  out << json.str();
  out.close();
  std::cout << json.str();
  std::cerr << "report written to " << out_path << "\n";

  if (baseline_path) {
    std::string base;
    if (!read_file(*baseline_path, base)) {
      return usage_error("cannot read baseline " + *baseline_path);
    }
    bool failed = false;
    // Throughput may fall, and peak RSS grow, by at most max_regress.
    const auto check = [&](const std::string& section, const std::string& key,
                           double current, bool higher_is_better) {
      const double ref = extract_number(base, section, key);
      if (ref <= 0.0) {
        std::cerr << "baseline: no " << section << " " << key << "; skipped\n";
        return;
      }
      const double bound =
          ref * (higher_is_better ? 1.0 - max_regress : 1.0 + max_regress);
      std::cerr << "baseline " << section << " " << key << ": " << std::fixed
                << std::setprecision(1) << current << " vs " << ref
                << " (bound " << bound << ")\n";
      if (higher_is_better ? current < bound : current > bound) {
        std::cerr << "FAIL: " << section << " " << key << " regressed more than "
                  << max_regress * 100.0 << "%\n";
        failed = true;
      }
    };
    const auto gate = [&](const std::string& section, const CaseResult& r) {
      check(section, "events_per_sec", r.events_per_sec, true);
      check(section, "peak_rss_mb", r.peak_rss_mb, false);
    };
    gate("scale_quick", quick_result);
    if (!quick) gate("scale_full", full_result);
    if (failed) return 1;
    std::cerr << "baseline check passed\n";
  }
  return 0;
}
