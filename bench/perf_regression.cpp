// perf_regression — machine-readable performance harness guarding the hot
// paths this repo optimizes: the discrete-event kernel (slab-allocated
// events + small-buffer callbacks), the fair-share network engine
// (flow-class aggregation + component-scoped recompute + same-timestamp
// batching), the Hitchhiker-XOR coding kernels (encode + sub-shard repair
// through the RecoveryPlan slice decoder), and the parallel sweep runner.
//
// It measures, in one process:
//   * kernel micro: events/sec through sim::Simulator for a schedule+drain
//     workload and a schedule+cancel churn workload.
//   * network macro: flow ops/sec through net::Network for a burst-heavy
//     degraded-read fan-in + shuffle-wave + cancellation workload. That the
//     engine is exact on this workload (bit-identical completion times to
//     the naive per-flow water-filling pass) is a unit test in net_test,
//     not a timing concern.
//   * gf micro: raw GF(2^8) fused region-kernel throughput (10-source
//     mul_add and XOR accumulations) under the runtime-dispatched backend;
//     the report records which backend ran, and the baseline gate demotes
//     gf/ec regressions to warnings when the baseline was committed from a
//     different backend.
//   * macro: wall-clock for a fig7-style LF-vs-EDF seed sweep, serial
//     (--jobs 1) and parallel (--jobs N), and checks the two produce
//     identical results. The parallel leg is skipped (and marked skipped in
//     the report) on machines with fewer than two hardware threads, where
//     the "speedup" would only measure thread overhead.
//
// The JSON report goes to --out (default BENCH_perf.json). With --baseline
// PATH the run compares its kernel and network events/sec against the
// committed baseline and exits 1 if any workload regressed by more than
// --max-regress (default 0.25, i.e. 25%) — the CI perf gate.
//
// Usage: perf_regression [--quick] [--out PATH] [--baseline PATH]
//        [--max-regress X] [--jobs N] [--seeds N]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/ec/gf256_kernels.h"
#include "dfs/ec/hitchhiker.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/mapreduce/fetch_supervisor.h"
#include "dfs/net/network.h"
#include "dfs/net/topology.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/layout.h"
#include "dfs/util/args.h"

using namespace dfs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Schedule `events` no-op events across a 1000 s window, then drain.
void schedule_run_workload(int events) {
  sim::Simulator sim;
  volatile int sink = 0;
  for (int i = 0; i < events; ++i) {
    sim.schedule_in((i * 31) % 1000, [&sink] { sink = sink + 1; });
  }
  sim.run();
}

/// Same, but 3 of every 4 events are cancelled before they fire — the
/// timer-heavy pattern the MapReduce layer produces (heartbeats and
/// completion timers that are usually re-armed before expiring).
void churn_workload(int events) {
  sim::Simulator sim;
  volatile int sink = 0;
  for (int i = 0; i < events; ++i) {
    const auto id = sim.schedule_in((i * 31) % 1000, [&sink] { sink = sink + 1; });
    if (i % 4 != 0) sim.cancel(id);
  }
  sim.run();
}

/// Outcome of one network-macro run.
struct NetOutcome {
  double seconds = 0.0;
  std::uint64_t ops = 0;  ///< transfers started + cancellations attempted
};

/// Burst-heavy fair-share workload, the shape the MapReduce layer produces:
/// per wave, a degraded-read fan-in (k sources converging on one reader at
/// one instant), a same-timestamp shuffle burst (every mapper to every
/// reducer), and mid-flight cancellations of part of the fan-in. Paper
/// defaults (4x10 topology, contended rack links, unlimited node links), so
/// many flows share identical contended paths — exactly the regime the
/// class-aggregated engine collapses.
NetOutcome network_workload(int waves) {
  sim::Simulator sim;
  const net::Topology topo(4, 10);
  const net::LinkConfig links;  // 1 Gb/s rack links, node/core unlimited
  net::Network netw(sim, topo, links);
  util::Rng rng(24601);
  NetOutcome out;
  for (int w = 0; w < waves; ++w) {
    const double t = w * 1.0;
    // Degraded-read fan-in: 16 surviving blocks race to one reader.
    const auto fan_dst = static_cast<net::NodeId>(rng.uniform_int(0, 39));
    auto fan_ids = std::make_shared<std::vector<net::FlowId>>();
    for (int i = 0; i < 16; ++i) {
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, 39));
      const double size = rng.uniform(2e7, 6e7);
      sim.schedule_at(t, [&, fan_ids, src, fan_dst, size] {
        ++out.ops;
        fan_ids->push_back(netw.transfer(src, fan_dst, size, [] {}));
      });
    }
    // Shuffle burst: 8 mappers each push to 8 reducers at the same instant.
    for (int m = 0; m < 8; ++m) {
      const auto ms = static_cast<net::NodeId>(rng.uniform_int(0, 39));
      for (int r = 0; r < 8; ++r) {
        const auto rd = static_cast<net::NodeId>(rng.uniform_int(0, 39));
        const double size = rng.uniform(2e6, 6e6);
        sim.schedule_at(t + 0.4, [&, ms, rd, size] {
          ++out.ops;
          netw.transfer(ms, rd, size, [] {});
        });
      }
    }
    // Cancel a third of the fan-in mid-flight (a repair beat the reads, or
    // the task was reassigned); cancel() returning false for flows that
    // already finished is part of the workload.
    sim.schedule_at(t + rng.uniform(0.2, 0.9), [&, fan_ids] {
      for (std::size_t i = 0; i < fan_ids->size(); i += 3) {
        ++out.ops;
        netw.cancel((*fan_ids)[i]);
      }
    });
  }
  // Time only the event loop: the scheduling prologue above (rng draws,
  // lambda allocation) is not fair-share engine work.
  const auto start = Clock::now();
  sim.run();
  out.seconds = seconds_since(start);
  return out;
}

/// Best-of-`reps` throughput in operations/sec for `workload(ops)`.
double best_rate(int reps, int ops, const std::function<void(int)>& workload) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    workload(ops);
    const double elapsed = seconds_since(start);
    if (elapsed > 0.0) best = std::max(best, ops / elapsed);
  }
  return best;
}

/// One macro sweep cell: the fig7 default-cluster LF + EDF normalized
/// runtime pair for one seed (4 full MapReduce simulations).
std::pair<double, double> macro_cell(const mapreduce::ClusterConfig& cfg,
                                     int s) {
  util::Rng rng(static_cast<std::uint64_t>(s) * 7919 + 17);
  const auto job = workload::make_sim_job(0, workload::SimJobOptions{},
                                          cfg.topology, rng);
  const auto failure = storage::single_node_failure(cfg.topology, rng);
  const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  return {bench::normalized_runtime_sample(cfg, job, failure, lf, seed),
          bench::normalized_runtime_sample(cfg, job, failure, edf, seed)};
}

/// Hitchhiker-XOR coding throughput on hh:12,10 — encode bytes/sec over the
/// data payload and sub-shard repair bytes/sec over the rebuilt shard. The
/// repair leg drives the decoder exactly the way MapPhase does: take the
/// planner's cheapest recovery option, slice each source to the substripes
/// it asks for, and feed the half-shards to reconstruct_slices.
struct HitchhikerRates {
  double encode_bytes_per_sec = 0.0;
  double reconstruct_bytes_per_sec = 0.0;
};

HitchhikerRates hitchhiker_rates(int reps, std::size_t shard_len) {
  const ec::HitchhikerXorCode code(12, 10);
  util::Rng rng(8191);
  std::vector<ec::Shard> data(10, ec::Shard(shard_len));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  std::vector<ec::Shard> stripe = data;
  for (auto& p : code.encode(data)) stripe.push_back(std::move(p));

  std::vector<int> available;
  for (int i = 1; i < 12; ++i) available.push_back(i);
  const auto plan = code.recovery_plan(available, 0);
  const auto& opt = plan->options.front();
  const std::size_t half = shard_len / 2;
  std::vector<ec::Shard> sliced;
  sliced.reserve(opt.sources.size());
  for (const auto& src : opt.sources) {
    const ec::Shard& full = stripe[static_cast<std::size_t>(src.shard)];
    if (src.substripes == code.full_substripe_mask()) {
      sliced.emplace_back(full);
    } else if (src.substripes == 0x1u) {
      sliced.emplace_back(full.begin(),
                          full.begin() + static_cast<std::ptrdiff_t>(half));
    } else {
      sliced.emplace_back(full.begin() + static_cast<std::ptrdiff_t>(half),
                          full.end());
    }
  }
  std::vector<ec::ErasureCode::PresentSlice> present;
  for (std::size_t i = 0; i < opt.sources.size(); ++i) {
    present.push_back(
        {opt.sources[i].shard, opt.sources[i].substripes, &sliced[i]});
  }

  HitchhikerRates rates;
  const int encode_iters = 16;
  const int repair_iters = 64;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    for (int i = 0; i < encode_iters; ++i) {
      auto parity = code.encode(data);
      if (parity.empty()) std::abort();  // keep the loop observable
    }
    double elapsed = seconds_since(start);
    if (elapsed > 0.0) {
      rates.encode_bytes_per_sec =
          std::max(rates.encode_bytes_per_sec,
                   static_cast<double>(encode_iters) * 10.0 *
                       static_cast<double>(shard_len) / elapsed);
    }
    start = Clock::now();
    for (int i = 0; i < repair_iters; ++i) {
      auto rebuilt = code.reconstruct_slices(present, {0});
      if (!rebuilt || rebuilt->front().empty()) std::abort();
    }
    elapsed = seconds_since(start);
    if (elapsed > 0.0) {
      rates.reconstruct_bytes_per_sec =
          std::max(rates.reconstruct_bytes_per_sec,
                   static_cast<double>(repair_iters) *
                       static_cast<double>(shard_len) / elapsed);
    }
  }
  return rates;
}

/// Raw GF(2^8) region-kernel throughput under the active runtime-dispatched
/// backend: the fused 10-source mul_add accumulation (the encode inner loop)
/// and the 10-source XOR accumulation (the Cauchy/XOR-family inner loop),
/// both in source bytes/sec.
struct GfRates {
  double mul_add_multi_bytes_per_sec = 0.0;
  double xor_multi_bytes_per_sec = 0.0;
};

GfRates gf_kernel_rates(int reps, std::size_t region_len) {
  constexpr std::size_t kSources = 10;
  util::Rng rng(6151);
  std::vector<ec::Shard> src_bufs(kSources, ec::Shard(region_len));
  for (auto& s : src_bufs) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  std::vector<const std::uint8_t*> srcs;
  std::vector<std::uint8_t> coeffs;
  for (std::size_t j = 0; j < kSources; ++j) {
    srcs.push_back(src_bufs[j].data());
    coeffs.push_back(static_cast<std::uint8_t>(2 + j));
  }
  ec::Shard dst(region_len, 0);

  GfRates rates;
  const int iters = 64;
  const double bytes =
      static_cast<double>(iters) * kSources * static_cast<double>(region_len);
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      ec::gf256::mul_add_region_multi(dst.data(), srcs.data(), coeffs.data(),
                                      kSources, region_len);
    }
    double elapsed = seconds_since(start);
    if (dst.empty()) std::abort();  // keep the loop observable
    if (elapsed > 0.0) {
      rates.mul_add_multi_bytes_per_sec =
          std::max(rates.mul_add_multi_bytes_per_sec, bytes / elapsed);
    }
    start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      ec::gf256::xor_region_multi(dst.data(), srcs.data(), kSources,
                                  region_len);
    }
    elapsed = seconds_since(start);
    if (elapsed > 0.0) {
      rates.xor_multi_bytes_per_sec =
          std::max(rates.xor_multi_bytes_per_sec, bytes / elapsed);
    }
  }
  return rates;
}

/// Supervised hedged-read throughput: reads/sec through the FetchSupervisor
/// with every robustness path hot — r=2 hedge fetches, cancel-on-quorum,
/// per-fetch timeouts, straggler service jitter, and transient-failure
/// retries — over a contended fair-share network, the configuration the
/// dfscluster robustness runs pay for on every degraded read.
double hedging_rate(int reps, int reads) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator sim;
    net::Topology topo(4, 10);
    net::LinkConfig links;
    links.rack_up = 1.0e6;  // bytes/sec; 1e4-byte block -> 0.01 s cross-rack
    links.rack_down = 1.0e6;
    net::Network net(sim, topo, links);
    util::Rng layout_rng(99);
    const storage::StorageLayout layout =
        storage::random_rack_constrained_layout(240, 8, 4, topo, layout_rng);
    const ec::ReedSolomonCode code(8, 4);
    const storage::DegradedReadPlanner planner(layout, topo, code);
    const storage::FailureScenario failure({0});
    mapreduce::ClusterConfig cfg;
    cfg.block_size = 1.0e4;
    cfg.hedge.extra_sources = 2;
    cfg.fetch.timeout = 1.0;
    cfg.fetch.max_retries = 2;
    cfg.fetch.retry_backoff = 0.1;
    cfg.straggler.fraction = 0.1;
    cfg.straggler.slowdown = 4.0;
    cfg.straggler.service_mean = 0.05;
    cfg.straggler.fail_prob = 0.05;
    mapreduce::FetchSupervisor supervisor(sim, net, failure, cfg,
                                          util::Rng(4242));
    util::Rng plan_rng(7);
    std::vector<storage::BlockId> lost_blocks;
    for (const storage::BlockId b : layout.blocks_on_node(0)) {
      if (b.index < layout.k()) lost_blocks.push_back(b);
    }
    int completed = 0;
    const auto start = Clock::now();
    for (int i = 0; i < reads; ++i) {
      const storage::BlockId lost = lost_blocks[
          static_cast<std::size_t>(i) % lost_blocks.size()];
      const net::NodeId reader = static_cast<net::NodeId>(1 + i % 39);
      // 50 reads/sec offered keeps the rack links ~75% utilized: enough
      // overlap that hedge losers are cancelled mid-flight and jitter-tail
      // fetches hit the timeout, without tipping into a retry storm where
      // the measurement would price queueing instead of the supervisor.
      sim.schedule_at(0.02 * i, [&, lost, reader] {
        auto plan = planner.plan_hedged(lost, reader, failure, plan_rng, 2);
        if (!plan) return;
        supervisor.start_read(planner, std::move(*plan), reader,
                              [&completed](mapreduce::ReadOutcome out) {
                                completed += out.ok ? 1 : 0;
                              });
      });
    }
    sim.run();
    const double elapsed = seconds_since(start);
    if (completed == 0) std::abort();  // keep the workload observable
    if (elapsed > 0.0) best = std::max(best, reads / elapsed);
  }
  return best;
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

/// Companion to extract_number for `"key": "value"` string fields. Returns
/// "" when absent.
std::string extract_string(const std::string& json, const std::string& section,
                           const std::string& key) {
  const auto sec = json.find('"' + section + '"');
  if (sec == std::string::npos) return "";
  const auto pos = json.find('"' + key + "\": \"", sec);
  if (pos == std::string::npos) return "";
  const auto start = pos + key.size() + 5;
  const auto end = json.find('"', start);
  if (end == std::string::npos) return "";
  return json.substr(start, end - start);
}

int usage_error(const std::string& message) {
  std::cerr << "perf_regression: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "perf_regression - event-kernel + sweep-runner perf harness\n"
                 "  --quick            smaller workloads (CI-sized)\n"
                 "  --out PATH         JSON report path [BENCH_perf.json]\n"
                 "  --baseline PATH    compare kernel events/sec against a\n"
                 "                     committed report; exit 1 on regression\n"
                 "  --max-regress X    allowed fractional regression [0.25]\n"
                 "  --jobs N           parallel sweep width [hardware]\n"
                 "  --seeds N          macro sweep cells [8, quick: 4]\n";
    return 0;
  }
  const bool quick = args.has("quick");
  const std::string out_path = args.get_or("out", "BENCH_perf.json");
  const auto baseline_path = args.get("baseline");
  double max_regress = 0.0;
  int seeds = 0;
  try {
    max_regress = args.get_double("max-regress", 0.25);
    seeds = args.get_int("seeds", quick ? 4 : 8);
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  const auto jobs = runner::jobs_from_args(args);
  if (!jobs) return usage_error(runner::jobs_error());
  if (seeds < 1) return usage_error("--seeds must be >= 1");
  if (max_regress < 0.0 || max_regress >= 1.0) {
    return usage_error("--max-regress must be in [0, 1)");
  }
  if (const auto unknown = args.unrecognized(); !unknown.empty()) {
    return usage_error("unknown flag --" + unknown.front());
  }

  // --- kernel micro ---------------------------------------------------------
  const int events = quick ? 100000 : 200000;
  const int reps = quick ? 3 : 5;
  std::cerr << "kernel: schedule+drain, " << events << " events x " << reps
            << " reps\n";
  const double sched_rate = best_rate(reps, events, schedule_run_workload);
  std::cerr << "kernel: churn (75% cancelled), " << events << " events x "
            << reps << " reps\n";
  const double churn_rate = best_rate(reps, events, churn_workload);

  // --- network macro --------------------------------------------------------
  const int waves = quick ? 60 : 120;
  std::cerr << "network: fan-in/shuffle/cancel bursts, " << waves
            << " waves x " << reps << " reps\n";
  std::uint64_t net_ops = 0;
  double net_rate = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto c = network_workload(waves);
    net_ops = c.ops;
    if (c.seconds > 0.0) {
      net_rate = std::max(net_rate, static_cast<double>(c.ops) / c.seconds);
    }
  }

  // --- gf micro -------------------------------------------------------------
  const std::size_t shard_len = quick ? (64u << 10) : (256u << 10);
  const std::string gf_backend =
      ec::gf256::backend_name(ec::gf256::active_backend());
  std::cerr << "gf: fused 10-source region kernels (" << gf_backend
            << " backend), " << (shard_len >> 10) << " KiB regions x " << reps
            << " reps\n";
  const auto gf = gf_kernel_rates(reps, shard_len);

  // --- ec micro -------------------------------------------------------------
  std::cerr << "ec: hitchhiker hh:12,10 encode + sub-shard repair, "
            << (shard_len >> 10) << " KiB shards x " << reps << " reps\n";
  const auto hh = hitchhiker_rates(reps, shard_len);

  // --- hedging macro --------------------------------------------------------
  const int hedged_reads = quick ? 2000 : 5000;
  std::cerr << "hedging: supervised degraded reads (r=2 hedges, "
               "cancel-on-quorum, jitter + transient faults + timeouts), "
            << hedged_reads << " reads x " << reps << " reps\n";
  const double hedging_reads_per_sec = hedging_rate(reps, hedged_reads);

  // --- macro sweep ----------------------------------------------------------
  const auto cfg = workload::default_sim_cluster();
  std::cerr << "macro: fig7-style LF/EDF sweep, " << seeds
            << " seeds, serial\n";
  runner::ThreadPool serial_pool(1);
  const auto serial_start = Clock::now();
  const auto serial_results =
      runner::sweep(serial_pool, static_cast<std::size_t>(seeds),
                    [&](std::size_t i) {
                      return macro_cell(cfg, static_cast<int>(i));
                    });
  const double serial_seconds = seconds_since(serial_start);

  // On a single-hardware-thread machine a "parallel" sweep can only measure
  // thread overhead, and committing its speedup (~1.0x) to the baseline
  // misreads as a runner regression on real hardware — skip the leg and say
  // so in the report instead.
  const bool run_parallel = runner::default_jobs() >= 2;
  double parallel_seconds = 0.0;
  bool deterministic = true;
  if (run_parallel) {
    std::cerr << "macro: parallel sweep, --jobs " << *jobs << "\n";
    runner::ThreadPool parallel_pool(*jobs);
    const auto parallel_start = Clock::now();
    const auto parallel_results =
        runner::sweep(parallel_pool, static_cast<std::size_t>(seeds),
                      [&](std::size_t i) {
                        return macro_cell(cfg, static_cast<int>(i));
                      });
    parallel_seconds = seconds_since(parallel_start);
    deterministic = serial_results == parallel_results;
  } else {
    std::cerr << "macro: parallel sweep skipped (hardware_concurrency "
              << runner::default_jobs() << " < 2)\n";
  }

  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;

  std::ostringstream json;
  json << std::setprecision(10);
  json << "{\n"
       << "  \"schema\": 1,\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": " << runner::default_jobs() << ",\n"
       << "  \"kernel\": {\n"
       << "    \"schedule_run\": {\n"
       << "      \"events\": " << events << ",\n"
       << "      \"events_per_sec\": " << sched_rate << "\n"
       << "    },\n"
       << "    \"churn\": {\n"
       << "      \"events\": " << events << ",\n"
       << "      \"events_per_sec\": " << churn_rate << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"network\": {\n"
       << "    \"waves\": " << waves << ",\n"
       << "    \"flow_ops\": " << net_ops << ",\n"
       << "    \"events_per_sec\": " << net_rate << "\n"
       << "  },\n"
       << "  \"gf\": {\n"
       << "    \"backend\": \"" << gf_backend << "\",\n"
       << "    \"region_bytes\": " << shard_len << ",\n"
       << "    \"mul_add_multi\": {\n"
       << "      \"events_per_sec\": " << gf.mul_add_multi_bytes_per_sec
       << "\n"
       << "    },\n"
       << "    \"xor_multi\": {\n"
       << "      \"events_per_sec\": " << gf.xor_multi_bytes_per_sec << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"ec\": {\n"
       << "    \"backend\": \"" << gf_backend << "\",\n"
       << "    \"shard_bytes\": " << shard_len << ",\n"
       << "    \"hh_encode\": {\n"
       << "      \"events_per_sec\": " << hh.encode_bytes_per_sec << "\n"
       << "    },\n"
       << "    \"hh_reconstruct\": {\n"
       << "      \"events_per_sec\": " << hh.reconstruct_bytes_per_sec << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"hedging\": {\n"
       << "    \"reads\": " << hedged_reads << ",\n"
       << "    \"events_per_sec\": " << hedging_reads_per_sec << "\n"
       << "  },\n"
       << "  \"macro\": {\n"
       << "    \"seeds\": " << seeds << ",\n"
       << "    \"serial_seconds\": " << serial_seconds << ",\n"
       << "    \"parallel_skipped\": " << (run_parallel ? "false" : "true");
  if (run_parallel) {
    json << ",\n"
         << "    \"parallel_jobs\": " << *jobs << ",\n"
         << "    \"parallel_seconds\": " << parallel_seconds << ",\n"
         << "    \"speedup\": " << speedup << ",\n"
         << "    \"deterministic\": " << (deterministic ? "true" : "false")
         << "\n";
  } else {
    json << "\n";
  }
  json << "  }\n"
       << "}\n";

  std::ofstream out(out_path);
  if (!out) return usage_error("cannot write " + out_path);
  out << json.str();
  out.close();
  std::cout << json.str();
  std::cerr << "report written to " << out_path << "\n";

  if (!deterministic) {
    std::cerr << "FAIL: parallel sweep results differ from serial\n";
    return 1;
  }
  if (baseline_path) {
    std::ifstream in(*baseline_path);
    if (!in) return usage_error("cannot read baseline " + *baseline_path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string base = buf.str();
    // The gf/ec numbers depend on which GF kernel backend ran. When the
    // baseline was committed from a different backend than this run picked
    // (older baseline with no backend recorded counts as matching), a gap is
    // expected hardware/build variance, not a regression — demote those
    // sections to warnings instead of failing the job.
    const std::string base_backend = extract_string(base, "gf", "backend");
    const bool backend_match =
        base_backend.empty() || base_backend == gf_backend;
    if (!backend_match) {
      std::cerr << "baseline gf backend '" << base_backend
                << "' differs from this run's '" << gf_backend
                << "'; gf/ec regressions reported as warnings only\n";
    }
    bool failed = false;
    const auto gate = [&](const std::string& section, double current,
                          bool hard) {
      const double ref = extract_number(base, section, "events_per_sec");
      if (ref <= 0.0) {
        std::cerr << "baseline: no " << section << " events_per_sec; skipped\n";
        return;
      }
      const double floor = ref * (1.0 - max_regress);
      std::cerr << "baseline " << section << ": " << std::fixed
                << std::setprecision(0) << current << " vs " << ref
                << " (floor " << floor << ")\n";
      if (current < floor) {
        if (hard) {
          std::cerr << "FAIL: " << section
                    << " events/sec regressed more than "
                    << max_regress * 100.0 << "%\n";
          failed = true;
        } else {
          std::cerr << "WARN: " << section << " events/sec more than "
                    << max_regress * 100.0
                    << "% below a different-backend baseline; not gating\n";
        }
      }
    };
    gate("schedule_run", sched_rate, true);
    gate("churn", churn_rate, true);
    gate("network", net_rate, true);
    gate("mul_add_multi", gf.mul_add_multi_bytes_per_sec, backend_match);
    gate("xor_multi", gf.xor_multi_bytes_per_sec, backend_match);
    gate("hh_encode", hh.encode_bytes_per_sec, backend_match);
    gate("hh_reconstruct", hh.reconstruct_bytes_per_sec, backend_match);
    // Hedged reads decode through the GF kernels on completion, so this
    // throughput also shifts with the backend.
    gate("hedging", hedging_reads_per_sec, backend_match);
    if (failed) return 1;
    std::cerr << "baseline check passed\n";
  }
  return 0;
}
