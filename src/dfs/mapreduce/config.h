#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "dfs/ec/erasure_code.h"
#include "dfs/net/network.h"
#include "dfs/net/topology.h"
#include "dfs/storage/layout.h"
#include "dfs/mapreduce/types.h"
#include "dfs/util/units.h"

namespace dfs::mapreduce {

/// Compute-failure fault tolerance (Hadoop's JobTracker semantics). All
/// knobs default to off: with this struct untouched the master behaves
/// exactly as the storage-only failure model — no extra RNG draws, no extra
/// events — so existing runs stay byte-identical.
struct FaultConfig {
  /// Master switch for TaskTracker-death semantics: heartbeats stop when a
  /// node's compute fails, the master declares it dead only after the expiry
  /// window, kills its in-flight attempts, requeues their tasks, and
  /// re-executes completed maps whose shuffle outputs died with the node.
  /// Off reproduces the paper's oracle model (storage loss only; attempts on
  /// a failed node are allowed to finish).
  bool compute_failures = false;
  /// A slave is declared dead once its last heartbeat is older than
  /// expiry_multiplier * heartbeat_interval (Hadoop-style expiry).
  double expiry_multiplier = 10.0;
  /// Per-attempt probability of a transient mid-run crash (maps and
  /// reduces). 0 disables injection entirely.
  double attempt_failure_prob = 0.0;
  /// Restrict crash injection to these nodes; empty means every node is
  /// eligible. Lets tests and ablations model one flaky machine.
  std::vector<NodeId> flaky_nodes;
  /// Attempts per task before its job is aborted and marked failed.
  int max_attempts = 4;
  /// Delay before a failed task re-enters the pending pools; doubles with
  /// each prior failure of the same task (exponential backoff).
  util::Seconds retry_backoff = 1.0;
  /// Attempt failures on one slave before it is blacklisted (<= 0 disables
  /// blacklisting) ...
  int blacklist_threshold = 3;
  /// ... and for how long: a blacklisted slave advertises zero free slots
  /// until the window passes.
  util::Seconds blacklist_duration = 300.0;

  bool injection_enabled() const { return attempt_failure_prob > 0.0; }
  bool node_flaky(NodeId node) const {
    if (flaky_nodes.empty()) return true;
    for (const NodeId n : flaky_nodes) {
      if (n == node) return true;
    }
    return false;
  }
};

/// Hedged degraded reads (MDS-queue style): a degraded read launches its
/// plan's sources plus up to `extra_sources` hedge fetches from the
/// RecoveryPlan's alternative options, completes on the first quorum able to
/// reconstruct the lost block, and cancels the losers mid-flight. Off by
/// default: with no extra sources (and StragglerConfig inert) the fetch
/// supervisor downloads exactly the primary plan — no extra RNG draws, no
/// extra events — so existing runs stay byte-identical.
struct HedgeConfig {
  /// Hedge fetches launched beyond the primary plan (clamped to the
  /// surviving shards actually available); 0 turns hedging off.
  int extra_sources = 0;
  /// Fetches that must have completed before a quorum may be declared, on
  /// top of reconstructability itself (0 = coverage alone decides). Lets
  /// ablations force deeper waits.
  int min_quorum = 0;

  bool active() const { return extra_sources > 0; }
};

/// Per-fetch supervision: timeouts and bounded retries around every
/// degraded-read fetch. Inert at the defaults (no timer events armed), and
/// the timeout is armed only when `ClusterConfig::fetch_supervised()`.
struct FetchPolicy {
  /// A fetch older than this is abandoned and retried (0 = no timeout).
  util::Seconds timeout = 0.0;
  /// Transient-failure/timeout retries per source before the supervisor
  /// falls back to an alternative RecoveryOption.
  int max_retries = 2;
  /// Base backoff before a retry; doubles with each prior failure of the
  /// same fetch (exponential backoff).
  util::Seconds retry_backoff = 0.5;
};

/// Storage fault injection for degraded-read fetches: per-slave straggler
/// slowdowns, heavy-tailed service jitter, and transient fetch failures —
/// the adversary hedging is measured against. All knobs default to off (no
/// extra RNG draws, no extra events; byte-identical runs).
struct StragglerConfig {
  /// Fraction of nodes that serve reads slowly. Straggler nodes are chosen
  /// deterministically, evenly spaced across the cluster (and thus across
  /// racks), so no RNG draw is spent on selection.
  double fraction = 0.0;
  /// Service-jitter multiplier on straggler nodes.
  double slowdown = 4.0;
  /// Mean per-fetch service delay before bytes start flowing (disk queue +
  /// handoff). 0 disables jitter entirely.
  util::Seconds service_mean = 0.0;
  /// Heavy-tail shape: 0 draws exponential jitter; > 1 draws Pareto with
  /// this alpha (scale chosen to preserve `service_mean`).
  double pareto_alpha = 0.0;
  /// Per-fetch probability of a transient failure (connection reset, bad
  /// read): the fetch dies partway through its service delay and must be
  /// retried. 0 disables.
  double fail_prob = 0.0;

  bool active() const { return service_mean > 0.0 || fail_prob > 0.0; }

  /// Evenly-spaced deterministic straggler choice: node n is a straggler
  /// iff the integer ramp floor((n+1)*S/N) advances at n, where S is the
  /// straggler head count. Spreads stragglers across racks without
  /// consuming RNG state.
  bool is_straggler(NodeId node, int num_nodes) const {
    if (fraction <= 0.0) return false;
    const long n = static_cast<long>(node);
    const long total = static_cast<long>(num_nodes);
    const long count = std::lround(fraction * static_cast<double>(total));
    return (n + 1) * count / total > n * count / total;
  }
};

/// Static description of the simulated cluster (§V-B defaults).
struct ClusterConfig {
  net::Topology topology{4, 10};  ///< 40 nodes in 4 racks by default
  net::LinkConfig links{};        ///< rack up/down = 1 Gbps, node links free
  net::ContentionModel contention = net::ContentionModel::kMaxMinFairShare;

  int map_slots_per_node = 4;
  int reduce_slots_per_node = 1;
  util::Seconds heartbeat_interval = 3.0;
  util::Bytes block_size = util::mebibytes(128);

  /// Per-node processing-time multiplier (1.0 = baseline; 2.0 = twice as
  /// slow). Sized num_nodes or empty for homogeneous clusters. Drives the
  /// heterogeneous experiments of §V-C.
  std::vector<double> node_time_scale;

  /// Hadoop-style speculative execution (off by default: the paper's
  /// evaluation disables it). When a job has no unassigned map tasks and a
  /// slave has an idle slot, a backup copy of the slowest-running map task
  /// is launched on that slave if it has been running longer than 1.5 times
  /// the mean completed-map runtime; the first copy to finish wins. Losing
  /// copies run to completion on their slot (we model the conservative
  /// no-kill variant).
  bool speculative_execution = false;

  /// Compute-failure fault tolerance; inert at its defaults.
  FaultConfig fault;

  /// Hedged degraded reads + per-fetch supervision + storage fault
  /// injection; all inert at their defaults. Every degraded read runs
  /// through the fetch supervisor; `fetch_supervised()` says whether these
  /// knobs make it do more than download the primary plan (and so whether
  /// its records and stats are reported).
  HedgeConfig hedge;
  FetchPolicy fetch;
  StragglerConfig straggler;

  bool fetch_supervised() const {
    return hedge.active() || straggler.active();
  }

  double time_scale(NodeId node) const {
    if (node_time_scale.empty()) return 1.0;
    return node_time_scale[static_cast<std::size_t>(node)];
  }
};

/// One MapReduce job: a map task per native block of its input file, plus a
/// fixed number of reduce tasks fed by a shuffle.
struct JobSpec {
  JobId id = 0;
  Dist map_time{20.0, 1.0};
  Dist reduce_time{30.0, 2.0};
  int num_reducers = 30;
  /// Intermediate data emitted per map task, as a fraction of the block size
  /// (§V-B uses 1%; Fig. 7(e) sweeps 1%-30%).
  double shuffle_ratio = 0.01;
  util::Seconds submit_time = 0.0;
  /// Tenant class the job belongs to (multi-tenant admission); single-tenant
  /// workloads leave every job in class 0.
  int tenant = 0;
};

/// A job together with the erasure-coded layout of its input file and the
/// code protecting it (degraded reads ask the code which survivors to read).
struct JobInput {
  JobSpec spec;
  std::shared_ptr<const storage::StorageLayout> layout;
  std::shared_ptr<const ec::ErasureCode> code;
};

}  // namespace dfs::mapreduce
