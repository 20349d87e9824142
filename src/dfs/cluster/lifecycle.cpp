#include "dfs/cluster/lifecycle.h"

#include <algorithm>
#include <stdexcept>

namespace dfs::cluster {

namespace {
// Cap on simultaneously failed nodes for node-level events; a clock that
// fires at the cap is redrawn, keeping runs inside the code's tolerance.
constexpr int kMaxConcurrentFailed = 4;
}  // namespace

LifecycleDriver::LifecycleDriver(sim::Simulator& simulator,
                                 net::Network& network,
                                 mapreduce::Master& master,
                                 storage::FailureScenario& failure,
                                 const storage::StorageLayout& archive_layout,
                                 const ec::ErasureCode& archive_code,
                                 LifecycleOptions options, util::Rng rng)
    : sim_(simulator),
      net_(network),
      master_(master),
      failure_(failure),
      archive_layout_(archive_layout),
      archive_code_(archive_code),
      options_(options),
      rng_(rng) {
  if (options_.node_mttf_hours <= 0.0) {
    throw std::invalid_argument("node_mttf_hours must be > 0");
  }
  clocks_.resize(static_cast<std::size_t>(net_.topology().num_nodes()));
}

void LifecycleDriver::start() {
  for (net::NodeId n = 0; n < net_.topology().num_nodes(); ++n) {
    if (!failure_.is_failed(n)) arm_failure_clock(n);
  }
  sim_.schedule_at(options_.horizon, [this] { stop_at_horizon(); });
}

void LifecycleDriver::arm_failure_clock(net::NodeId node) {
  const util::Seconds ttf =
      rng_.exponential(options_.node_mttf_hours * 3600.0);
  if (sim_.now() + ttf > options_.horizon) return;  // never fires in-window
  clocks_[static_cast<std::size_t>(node)] =
      sim_.schedule_in(ttf, [this, node] { on_failure_clock(node); });
}

void LifecycleDriver::on_failure_clock(net::NodeId node) {
  clocks_[static_cast<std::size_t>(node)] = sim::EventId{};
  if (stopped_ || failure_.is_failed(node)) return;
  const int failed_now = static_cast<int>(failure_.failed_nodes().size());
  const bool rack =
      rng_.uniform(0.0, 1.0) < options_.rack_failure_fraction;
  std::vector<net::NodeId> victims;
  if (rack) {
    // A whole rack exceeds any per-node cap, so it gets its own guard: fire
    // only into an otherwise healthy cluster. The §III placement rule keeps
    // one rack's share of a stripe within the code's tolerance (n - k), so
    // a lone rack failure stays recoverable where rack-plus-node might not.
    if (failed_now > 0) {
      arm_failure_clock(node);  // redraw instead of firing
      return;
    }
    for (const net::NodeId peer :
         net_.topology().nodes_in_rack(net_.topology().rack_of(node))) {
      victims.push_back(peer);
    }
  } else {
    if (failed_now + 1 > kMaxConcurrentFailed) {
      arm_failure_clock(node);  // over the cap: redraw instead of firing
      return;
    }
    victims.push_back(node);
  }
  trigger_failure(std::move(victims), rack);
}

void LifecycleDriver::trigger_failure(std::vector<net::NodeId> nodes,
                                      bool rack) {
  auto active = std::make_unique<ActiveEvent>();
  active->event.fail_time = sim_.now();
  active->event.nodes = nodes;
  active->event.rack = rack;

  std::vector<storage::BlockId> lost_blocks;
  for (const net::NodeId n : nodes) {
    sim_.cancel(clocks_[static_cast<std::size_t>(n)]);
    clocks_[static_cast<std::size_t>(n)] = sim::EventId{};
    failure_.fail(n);
    master_.on_node_failed(n);
    if (options_.compute_failures) {
      master_.on_compute_failed(n);
      // Other events' in-flight repairs may be reading from or rebuilding
      // onto the newly-dead node.
      for (const auto& prior : events_) {
        if (prior->repair && !prior->repair->done()) {
          prior->repair->on_node_failed(n);
        }
      }
    }
    const auto blocks = archive_layout_.blocks_on_node(n);
    lost_blocks.insert(lost_blocks.end(), blocks.begin(), blocks.end());
  }

  mapreduce::RepairProcess::Options ropts;
  ropts.concurrency = options_.repair_concurrency;
  ropts.block_size = options_.block_size;
  ropts.start_time =
      sim_.now() + rng_.exponential(options_.mean_repair_delay);
  active->event.repair_start = ropts.start_time;
  active->repair = std::make_unique<mapreduce::RepairProcess>(
      sim_, net_, archive_layout_, archive_code_, failure_, ropts,
      rng_.fork());

  const std::size_t index = events_.size();
  active->repair->on_complete = [this, index] { on_repair_complete(index); };
  events_.push_back(std::move(active));
  ++active_failures_;
  events_.back()->repair->start(std::move(lost_blocks));
}

void LifecycleDriver::on_repair_complete(std::size_t event_index) {
  ActiveEvent& active = *events_[event_index];
  active.event.restore_time = sim_.now();
  active.event.blocks_repaired = active.repair->stats().blocks_repaired;
  active.event.blocks_unrecoverable =
      active.repair->stats().blocks_unrecoverable;
  --active_failures_;
  for (const net::NodeId n : active.event.nodes) {
    failure_.restore(n);
    master_.on_node_repaired(n);
    if (!stopped_) arm_failure_clock(n);
  }
}

void LifecycleDriver::stop_at_horizon() {
  stopped_ = true;
  for (auto& clock : clocks_) {
    sim_.cancel(clock);
    clock = sim::EventId{};
  }
}

int LifecycleDriver::repair_backlog() const {
  int backlog = 0;
  for (const auto& active : events_) {
    if (!active->repair->done()) backlog += active->repair->backlog();
  }
  return backlog;
}

int LifecycleDriver::active_failures() const { return active_failures_; }

int LifecycleDriver::failed_node_count() const {
  int count = 0;
  for (const auto& active : events_) {
    if (active->event.restore_time < 0.0) {
      count += static_cast<int>(active->event.nodes.size());
    }
  }
  return count;
}

int LifecycleDriver::blocks_repaired() const {
  int total = 0;
  for (const auto& active : events_) {
    total += active->repair->stats().blocks_repaired;
  }
  return total;
}

int LifecycleDriver::blocks_unrecoverable() const {
  int total = 0;
  for (const auto& active : events_) {
    total += active->repair->stats().blocks_unrecoverable;
  }
  return total;
}

std::vector<FailureEvent> LifecycleDriver::events() const {
  std::vector<FailureEvent> out;
  out.reserve(events_.size());
  for (const auto& active : events_) out.push_back(active->event);
  return out;
}

}  // namespace dfs::cluster
