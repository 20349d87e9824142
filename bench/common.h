#pragma once

// Shared helpers for the figure-reproduction harnesses.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/runner/sweep.h"
#include "dfs/runner/thread_pool.h"
#include "dfs/storage/failure.h"
#include "dfs/util/args.h"
#include "dfs/util/stats.h"
#include "dfs/util/table.h"
#include "dfs/workload/scenarios.h"

namespace dfs::bench {

/// The flags every figure harness takes.
struct HarnessFlags {
  int seeds = 0;  ///< --seeds N, or DFS_BENCH_SEEDS
  int jobs = 0;   ///< --jobs N, or DFS_BENCH_JOBS (default: every thread)
  bool quick = false;
};

/// Count from environment variable `name`, or `def` when it is unset. Like
/// a bad flag, anything but a whole number >= 1 exits 2 with a named error.
inline int env_count(const char* name, int def) {
  const char* text = std::getenv(name);
  try {
    const int value = text ? util::parse_number<int>(name, text) : def;
    if (value >= 1) return value;
    std::cerr << "bench: " << name << " must be >= 1\n";
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench: " << e.what() << "\n";
  }
  std::exit(2);
}

/// Parses the harness flags. `default_seeds` (the paper uses 30 samples per
/// boxplot) applies when neither --seeds nor DFS_BENCH_SEEDS is set; a
/// harness that passes `quick_seeds` > 0 also takes --quick, which lowers
/// that default to `quick_seeds`. A bad command line exits 2 with a named
/// error, like the tools.
inline HarnessFlags harness_flags(int argc, char** argv, int default_seeds = 30,
                                  int quick_seeds = 0) {
  HarnessFlags h{default_seeds, runner::default_jobs(), false};
  util::FlagTable flags("bench", "figure harness");
  flags.add("seeds", &h.seeds, "independent runs per cell", util::at_least(1));
  flags.add("jobs", &h.jobs, "sweep worker threads", util::at_least(1));
  if (quick_seeds > 0) flags.add("quick", &h.quick, "CI-sized run");
  flags.parse_or_exit(argc, argv, 2);
  if (!flags.given(&h.seeds)) {
    h.seeds =
        env_count("DFS_BENCH_SEEDS", h.quick ? quick_seeds : default_seeds);
  }
  if (!flags.given(&h.jobs)) h.jobs = env_count("DFS_BENCH_JOBS", h.jobs);
  return h;
}

/// Process-wide sweep pool, sized by the first call (pass the value from
/// harness_flags). Later calls reuse the same pool whatever they pass.
inline runner::ThreadPool& sweep_pool(int jobs) {
  static runner::ThreadPool pool(jobs);
  return pool;
}

/// Fan `fn(seed)` over seeds 0..n-1 across the shared pool; results come
/// back in seed order, so tables built from them are byte-identical to a
/// serial run. Each cell must build its own scheduler/Rng/simulation stack.
template <typename Fn>
auto sweep_seeds(int jobs, int n, Fn&& fn) {
  return runner::sweep(sweep_pool(jobs), static_cast<std::size_t>(n),
                       [&](std::size_t i) { return fn(static_cast<int>(i)); });
}

/// Renders a five-number summary the way the paper's boxplots report it.
inline std::vector<std::string> boxplot_cells(const util::BoxPlot& b,
                                              int precision = 2) {
  return {util::Table::num(b.median, precision),
          util::Table::num(b.q1, precision),
          util::Table::num(b.q3, precision),
          util::Table::num(b.min, precision),
          util::Table::num(b.max, precision),
          util::Table::num(b.mean, precision)};
}

inline std::vector<std::string> boxplot_header(const std::string& label) {
  return {label, "median", "q1", "q3", "lo", "hi", "mean"};
}

/// One failure-mode sample: runtime of the (single) job under `sched`,
/// normalized by the same seed's normal-mode runtime.
inline double normalized_runtime_sample(
    const mapreduce::ClusterConfig& cfg, const mapreduce::JobInput& job,
    const storage::FailureScenario& failure, core::Scheduler& sched,
    std::uint64_t seed) {
  const double failed = mapreduce::simulate(cfg, {job}, failure, sched, seed)
                            .single_job_runtime();
  const double normal =
      mapreduce::simulate(cfg, {job}, storage::no_failure(), sched, seed)
          .single_job_runtime();
  return failed / normal;
}

}  // namespace dfs::bench
