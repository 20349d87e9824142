#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dfs/net/network.h"
#include "dfs/net/topology.h"
#include "dfs/net/utilization.h"
#include "dfs/sim/simulator.h"
#include "dfs/util/rng.h"

namespace dfs::net {
namespace {

// --- topology ----------------------------------------------------------------

TEST(Topology, UniformRacks) {
  const Topology t(4, 10);
  EXPECT_EQ(t.num_nodes(), 40);
  EXPECT_EQ(t.num_racks(), 4);
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(9), 0);
  EXPECT_EQ(t.rack_of(10), 1);
  EXPECT_EQ(t.rack_of(39), 3);
  EXPECT_TRUE(t.same_rack(11, 19));
  EXPECT_FALSE(t.same_rack(9, 10));
}

TEST(Topology, UnevenRacks) {
  // The motivating example's cluster: rack 0 has 3 nodes, rack 1 has 2.
  const Topology t(std::vector<int>{3, 2});
  EXPECT_EQ(t.num_nodes(), 5);
  EXPECT_EQ(t.num_racks(), 2);
  EXPECT_EQ(t.rack_of(2), 0);
  EXPECT_EQ(t.rack_of(3), 1);
  EXPECT_EQ(t.nodes_in_rack(1), (std::vector<NodeId>{3, 4}));
}

TEST(Topology, RejectsEmptyOrNonPositiveSizes) {
  // Checked in Release builds too: asserts are compiled out there, and a
  // negative rack count used to end in an uncaught std::length_error.
  EXPECT_THROW(Topology(0, 10), std::invalid_argument);
  EXPECT_THROW(Topology(-2, 10), std::invalid_argument);
  EXPECT_THROW(Topology(4, 0), std::invalid_argument);
  EXPECT_THROW(Topology(4, -1), std::invalid_argument);
  EXPECT_THROW(Topology(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW(Topology(std::vector<int>{3, 0, 2}), std::invalid_argument);
  EXPECT_EQ(Topology(1, 1).num_nodes(), 1);
}

// --- network helpers -----------------------------------------------------------

struct Fixture {
  sim::Simulator sim;
  Topology topo{2, 2};  // nodes 0,1 in rack 0; nodes 2,3 in rack 1
  LinkConfig links;

  Fixture() {
    links.node_up = util::kUnlimitedBandwidth;
    links.node_down = util::kUnlimitedBandwidth;
    links.rack_up = 100.0;    // bytes/sec — small numbers for easy math
    links.rack_down = 100.0;
  }
};

TEST(Network, IsolatedTransferTimeCrossRack) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  EXPECT_DOUBLE_EQ(net.isolated_transfer_time(0, 2, 1000.0), 10.0);
}

TEST(Network, IsolatedTransferTimeIntraRackUncontended) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  // Node links unlimited: intra-rack transfers cost no simulated time.
  EXPECT_DOUBLE_EQ(net.isolated_transfer_time(0, 1, 1000.0), 0.0);
}

TEST(Network, IsolatedTimeUsesBottleneck) {
  Fixture f;
  f.links.node_down = 50.0;  // slower than the rack links
  Network net(f.sim, f.topo, f.links);
  EXPECT_DOUBLE_EQ(net.isolated_transfer_time(0, 2, 1000.0), 20.0);
}

TEST(Network, SingleTransferCompletesAtIsolatedTime) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double done = -1.0;
  net.transfer(0, 2, 1000.0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_DOUBLE_EQ(net.stats().bytes_delivered, 1000.0);
}

TEST(Network, FairShareTwoFlowsSameRackDownlinkDouble) {
  // The paper's motivating contention: two degraded reads into one rack
  // double the download time (10 s -> 20 s).
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kMaxMinFairShare);
  std::vector<double> done;
  net.transfer(0, 2, 1000.0, [&] { done.push_back(f.sim.now()); });
  net.transfer(1, 3, 1000.0, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 20.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

TEST(Network, SameInstantCompletionsDeliverInIdOrder) {
  // Three equal flows on one path, started together, finish in one
  // completion batch. Their callbacks must run in ascending flow id order,
  // whatever order the engine's containers happen to hold them in.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  std::vector<FlowId> order;
  for (int i = 0; i < 3; ++i) {
    const FlowId id = net.transfer(0, 2, 1000.0, [&order, i] {
      order.push_back(static_cast<FlowId>(i + 1));
    });
    EXPECT_EQ(id, static_cast<FlowId>(i + 1));
  }
  f.sim.run();
  EXPECT_NEAR(f.sim.now(), 30.0, 1e-6);
  EXPECT_EQ(order, (std::vector<FlowId>{1, 2, 3}));
}

TEST(Network, ExclusiveFifoSerializes) {
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kExclusiveFifo);
  std::vector<double> done;
  net.transfer(0, 2, 1000.0, [&] { done.push_back(f.sim.now()); });
  net.transfer(1, 3, 1000.0, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

TEST(Network, FairShareLateArrival) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double done_a = -1, done_b = -1;
  net.transfer(0, 2, 1000.0, [&] { done_a = f.sim.now(); });
  f.sim.schedule_in(5.0, [&] {
    net.transfer(1, 3, 1000.0, [&] { done_b = f.sim.now(); });
  });
  f.sim.run();
  // A alone 0-5 (500 B done), shared 5-15 (remaining 500 at 50 B/s),
  // then B alone 15-20.
  EXPECT_NEAR(done_a, 15.0, 1e-6);
  EXPECT_NEAR(done_b, 20.0, 1e-6);
}

TEST(Network, OppositeDirectionsDoNotContend) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  std::vector<double> done;
  net.transfer(0, 2, 1000.0, [&] { done.push_back(f.sim.now()); });
  net.transfer(2, 0, 1000.0, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(Network, SameNodeTransferInstant) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double done = -1;
  net.transfer(1, 1, 12345.0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
  EXPECT_DOUBLE_EQ(net.stats().bytes_delivered, 12345.0);
}

TEST(Network, ZeroByteTransferCompletes) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  bool done = false;
  net.transfer(0, 2, 0.0, [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, CompletionCallbackCanStartNewFlow) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double second_done = -1;
  net.transfer(0, 2, 1000.0, [&] {
    net.transfer(0, 2, 1000.0, [&] { second_done = f.sim.now(); });
  });
  f.sim.run();
  EXPECT_NEAR(second_done, 20.0, 1e-6);
}

TEST(Network, NodeLinkContentionAtDestination) {
  // k source blocks converging on one reader saturate its node downlink.
  Fixture f;
  f.links.node_down = 100.0;
  Network net(f.sim, f.topo, f.links);
  int finished = 0;
  double last = 0.0;
  // Two intra-rack transfers into node 1: share node 1's downlink.
  net.transfer(0, 1, 1000.0, [&] { ++finished; last = f.sim.now(); });
  f.sim.schedule_in(0.0, [&] {
    net.transfer(0, 1, 1000.0, [&] { ++finished; last = f.sim.now(); });
  });
  f.sim.run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(last, 20.0, 1e-6);
}

TEST(Network, ManyFlowsConservation) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    net.transfer(i % 2, 2 + (i % 2), 100.0, [&] { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 50);
  EXPECT_DOUBLE_EQ(net.stats().bytes_delivered, 5000.0);
  // 5000 bytes through a 100 B/s rack downlink: exactly 50 s busy.
  EXPECT_NEAR(net.rack_down_busy_time(1), 50.0, 1e-6);
}

TEST(Network, FifoSkipsBlockedAndRunsDisjoint) {
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kExclusiveFifo);
  std::vector<int> order;
  net.transfer(0, 2, 1000.0, [&] { order.push_back(0); });  // rack0->rack1
  net.transfer(1, 3, 1000.0, [&] { order.push_back(1); });  // blocked (same links)
  net.transfer(2, 0, 1000.0, [&] { order.push_back(2); });  // reverse: disjoint
  f.sim.run();
  ASSERT_EQ(order.size(), 3u);
  // Flow 2 uses the opposite-direction links and runs concurrently with 0.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST(Network, FifoCancelDropsPendingAndReleasesHeldLinks) {
  // Under exclusive holds a cancel can hit a queued flow (dropped before it
  // ever holds a link) or a running one (its links free up at once and the
  // next queued flow starts at that instant).
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kExclusiveFifo);
  std::vector<int> fired;
  const FlowId a = net.transfer(0, 2, 1000.0, [&] { fired.push_back(0); });
  const FlowId b = net.transfer(1, 3, 1000.0, [&] { fired.push_back(1); });
  double c_done = -1.0;
  net.transfer(0, 2, 1000.0, [&] {
    fired.push_back(2);
    c_done = f.sim.now();
  });
  EXPECT_EQ(net.active_flow_count(), 1);
  EXPECT_TRUE(net.cancel(b));  // still queued behind a
  EXPECT_FALSE(net.cancel(b));
  f.sim.schedule_in(5.0, [&] {
    EXPECT_TRUE(net.cancel(a));  // running: c takes the links now
    EXPECT_FALSE(net.cancel(a));
    EXPECT_EQ(net.active_flow_count(), 1);
  });
  f.sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_NEAR(c_done, 15.0, 1e-6);
  EXPECT_EQ(net.stats().flows_cancelled, 2u);
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_EQ(net.active_flow_count(), 0);
  // 5 s of a, then 10 s of c on rack 1's downlink.
  EXPECT_NEAR(net.rack_down_busy_time(1), 15.0, 1e-6);
}

TEST(Network, FairShareRatesRespectEveryLink) {
  // Three flows into rack 1: two from rack 0 (share rack0 uplink AND rack1
  // downlink) plus one intra-rack... with node links enabled.
  Fixture f;
  f.links.node_up = 100.0;
  f.links.node_down = 100.0;
  Network net(f.sim, f.topo, f.links);
  std::vector<double> done(3, -1);
  net.transfer(0, 2, 1000.0, [&] { done[0] = f.sim.now(); });
  net.transfer(1, 2, 1000.0, [&] { done[1] = f.sim.now(); });
  net.transfer(3, 2, 1000.0, [&] { done[2] = f.sim.now(); });
  f.sim.run();
  // Node 2's downlink (100 B/s) carries all 3000 bytes: last finishes at 30.
  const double latest = std::max({done[0], done[1], done[2]});
  EXPECT_NEAR(latest, 30.0, 1e-6);
}

// --- utilization sampler --------------------------------------------------------------

TEST(Utilization, MeasuresBusyFraction) {
  sim::Simulator sim;
  const Topology topo(2, 2);
  LinkConfig links;
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links);
  // One 1000-byte flow into rack 1: its downlink is busy for 10 s.
  net.transfer(0, 2, 1000.0, [] {});
  bool keep = true;
  UtilizationSampler sampler(sim, net, 5.0, [&keep] { return keep; });
  sampler.start();
  sim.schedule_at(40.0, [&keep] { keep = false; });
  sim.run();
  ASSERT_GE(sampler.samples().size(), 8u);
  // First two intervals: rack 1's downlink busy -> mean over 2 racks = 0.5.
  EXPECT_NEAR(sampler.samples()[0].utilization, 0.5, 1e-9);
  EXPECT_NEAR(sampler.samples()[1].utilization, 0.5, 1e-9);
  // After t=10 the network is idle.
  EXPECT_NEAR(sampler.samples()[3].utilization, 0.0, 1e-9);
  EXPECT_NEAR(sampler.mean_utilization(0.0, 10.0), 0.5, 1e-9);
  EXPECT_NEAR(sampler.mean_utilization(10.0, 40.0), 0.0, 1e-9);
}

TEST(Utilization, StopsWhenPredicateFalse) {
  sim::Simulator sim;
  const Topology topo(2, 2);
  Network net(sim, topo, LinkConfig{});
  int allowed = 3;
  UtilizationSampler sampler(sim, net, 1.0, [&allowed] { return --allowed > 0; });
  sampler.start();
  sim.run();
  EXPECT_EQ(sampler.samples().size(), 3u);
}

// --- property sweep over both contention models -------------------------------------

class ContentionParamTest
    : public ::testing::TestWithParam<ContentionModel> {};

TEST_P(ContentionParamTest, RandomFlowsConserveBytesAndRespectPhysics) {
  sim::Simulator sim;
  const Topology topo(3, 4);
  LinkConfig links;
  links.node_up = 500.0;
  links.node_down = 500.0;
  links.rack_up = 1000.0;
  links.rack_down = 1000.0;
  Network net(sim, topo, links, GetParam());

  struct Probe {
    double start = 0, end = -1, size = 0;
    NodeId src = 0, dst = 0;
  };
  std::vector<Probe> probes(200);
  util::Rng rng(77);
  double total = 0;
  for (auto& p : probes) {
    p.src = rng.uniform_int(0, 11);
    p.dst = rng.uniform_int(0, 11);
    p.size = rng.uniform(100.0, 5000.0);
    p.start = rng.uniform(0.0, 50.0);
    total += p.size;
    sim.schedule_at(p.start, [&net, &sim, &p] {
      net.transfer(p.src, p.dst, p.size, [&sim, &p] { p.end = sim.now(); });
    });
  }
  sim.run();

  EXPECT_EQ(net.stats().flows_completed, 200u);
  EXPECT_NEAR(net.stats().bytes_delivered, total, 1e-6);
  for (const auto& p : probes) {
    ASSERT_GE(p.end, 0.0) << "flow never completed";
    // No flow can beat the uncontended bottleneck transfer time.
    const double isolated = net.isolated_transfer_time(p.src, p.dst, p.size);
    EXPECT_GE(p.end - p.start, isolated - 1e-6);
  }
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST_P(ContentionParamTest, SequentialEqualsIsolated) {
  // Back-to-back transfers on an otherwise idle network complete at the sum
  // of their isolated times under either discipline.
  sim::Simulator sim;
  const Topology topo(2, 2);
  LinkConfig links;
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links, GetParam());
  double done = -1;
  net.transfer(0, 2, 500.0, [&] {
    net.transfer(0, 2, 500.0, [&] { done = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

// --- fair-share fast paths vs full water-filling ----------------------------

TEST(Network, FairShareFastPathsMatchFullRecomputeUnderChurn) {
  // Randomized flow churn with the debug cross-check on: every fast-path
  // allocation decision (isolated-flow add, idle-links removal) is re-derived
  // by a full water-filling pass inside the Network, which throws
  // std::logic_error if the rates diverge. The workload mixes contended and
  // isolated flows plus mid-flight cancellations so both fast paths and the
  // full pass are exercised.
  sim::Simulator sim;
  const Topology topo(4, 10);
  LinkConfig links;
  links.rack_up = util::megabits_per_sec(800.0);
  links.rack_down = util::megabits_per_sec(800.0);
  links.node_up = util::megabits_per_sec(400.0);
  links.node_down = util::megabits_per_sec(400.0);
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  util::Rng rng(12345);
  int done = 0;
  std::vector<FlowId> started;
  for (int i = 0; i < 160; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 39));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 39));
    const double size = rng.uniform(1e5, 5e6);
    const double at = rng.uniform(0.0, 40.0);
    sim.schedule_in(at, [&net, &done, &started, src, dst, size] {
      started.push_back(net.transfer(src, dst, size, [&done] { ++done; }));
    });
    if (i % 5 == 0) {
      // Cancel some random earlier flow mid-flight (whichever is still
      // active by then; cancel() returning false is fine).
      sim.schedule_in(at + rng.uniform(0.1, 5.0), [&net, &started, i] {
        if (!started.empty()) {
          net.cancel(started[static_cast<std::size_t>(i) % started.size()]);
        }
      });
    }
  }
  sim.run();

  EXPECT_EQ(net.active_flow_count(), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(done) + net.stats().flows_cancelled,
            net.stats().flows_started);
  // The whole point of the cross-check run: both strategies actually ran.
  EXPECT_GT(net.stats().fast_paths, 0u);
  EXPECT_GT(net.stats().full_recomputes, 0u);
}

// --- batched / aggregated fair-share engine vs the naive per-flow pass -------

TEST(Network, FairShareCancelHeavyChurnMatchesNaive) {
  // Cancel-heavy randomized churn with the cross-check on: after every
  // batched recompute the Network re-derives all rates with the naive
  // per-flow water-filling pass and throws std::logic_error on divergence.
  // Roughly half the flows are cancelled mid-flight, so class membership
  // counts shrink through every path (completion and cancellation) and
  // classes are torn down while their component is still contended.
  sim::Simulator sim;
  const Topology topo(3, 4);
  LinkConfig links;
  links.rack_up = util::megabits_per_sec(400.0);
  links.rack_down = util::megabits_per_sec(400.0);
  links.node_up = util::megabits_per_sec(200.0);
  links.node_down = util::megabits_per_sec(200.0);
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  util::Rng rng(987654);
  int done = 0;
  std::vector<FlowId> started;
  for (int i = 0; i < 120; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 11));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 11));
    const double size = rng.uniform(1e5, 8e6);
    const double at = rng.uniform(0.0, 30.0);
    sim.schedule_in(at, [&net, &done, &started, src, dst, size] {
      started.push_back(net.transfer(src, dst, size, [&done] { ++done; }));
    });
    // Every other flow triggers a cancellation attempt against whatever flow
    // started most recently — short delays so the target is usually still
    // mid-flight; cancel() returning false for finished flows is fine.
    if (i % 2 == 0) {
      sim.schedule_in(at + rng.uniform(0.01, 0.3), [&net, &started] {
        if (!started.empty()) net.cancel(started.back());
      });
    }
  }
  sim.run();

  EXPECT_EQ(net.active_flow_count(), 0);
  EXPECT_GT(net.stats().flows_cancelled, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(done) + net.stats().flows_cancelled,
            net.stats().flows_started);
  // Both engines ran: the naive reference pass (full recomputes) verified
  // every batched decision, and multi-class components were water-filled.
  EXPECT_GT(net.stats().full_recomputes, 0u);
  EXPECT_GT(net.stats().component_recomputes, 0u);
  EXPECT_EQ(net.stats().classes_active, 0);
}

TEST(Network, FairShareSameTimestampBurstsCoalesce) {
  // A k-fan-out burst started inside one event — the shape of a degraded
  // read fetching k blocks at once — must coalesce into a single zero-delay
  // recompute, and identical contended paths must collapse into one class.
  sim::Simulator sim;
  const Topology topo(2, 8);  // nodes 0-7 rack 0, 8-15 rack 1
  LinkConfig links;           // node links unlimited: only rack links contend
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  int done = 0;
  sim.schedule_in(0.0, [&] {
    for (NodeId i = 0; i < 8; ++i) {
      net.transfer(i, static_cast<NodeId>(8 + i), 1000.0,
                   [&done] { ++done; });
    }
    // Runs at the same timestamp but after the coalesced recompute (FIFO
    // tie-break): all eight adds were folded into one batch, and the eight
    // identical paths [rack0 up, rack1 down] form a single class, so the
    // component pass took the single-class fast path.
    sim.schedule_in(0.0, [&net] {
      EXPECT_EQ(net.stats().batched_recomputes, 1u);
      EXPECT_EQ(net.stats().classes_active, 1);
      EXPECT_EQ(net.stats().fast_paths, 1u);
      EXPECT_EQ(net.stats().component_recomputes, 0u);
    });
  });
  sim.run();

  // 8 equal flows share the 100 B/s rack links: 12.5 B/s each, done at 80 s.
  EXPECT_EQ(done, 8);
  EXPECT_NEAR(sim.now(), 80.0, 1e-6);
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.flows_started, 8u);
  EXPECT_EQ(s.flows_completed, 8u);
  // The simultaneous completion of all eight flows was itself one batch.
  EXPECT_EQ(s.batched_recomputes, 2u);
  EXPECT_EQ(s.classes_active, 0);
  EXPECT_DOUBLE_EQ(s.bytes_delivered, 8000.0);
}

TEST(Network, FairShareSingleFlowComponentsUseFastPath) {
  // Flows on disjoint link sets form single-class components; each add and
  // removal must resolve through the O(links) fast path without ever
  // water-filling a multi-class component.
  sim::Simulator sim;
  const Topology topo(3, 2);  // nodes 0,1 / 2,3 / 4,5
  LinkConfig links;
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  int done = 0;
  // Pairwise disjoint rings: rack0->rack1, rack1->rack2, rack2->rack0 use
  // six distinct directed links. Staggered starts so every add is its own
  // batch.
  net.transfer(0, 2, 1000.0, [&done] { ++done; });
  sim.schedule_in(1.0, [&] { net.transfer(2, 4, 1000.0, [&done] { ++done; }); });
  sim.schedule_in(2.0, [&] { net.transfer(4, 0, 1000.0, [&done] { ++done; }); });
  sim.run();

  EXPECT_EQ(done, 3);
  // Each flow ran uncontended at 100 B/s for its full 1000 bytes.
  EXPECT_NEAR(sim.now(), 12.0, 1e-6);
  EXPECT_EQ(net.stats().component_recomputes, 0u);
  EXPECT_GE(net.stats().fast_paths, 3u);
  EXPECT_EQ(net.stats().classes_active, 0);
}

// --- cancel: idempotence and same-batch races --------------------------------

TEST(Network, CancelIsIdempotentAcrossLifecycle) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  bool done = false;
  const FlowId id = net.transfer(0, 2, 1000.0, [&] { done = true; });
  // Mid-flight: first cancel wins, the second is a no-op.
  f.sim.schedule_in(5.0, [&] {
    EXPECT_TRUE(net.cancel(id));
    EXPECT_FALSE(net.cancel(id));
  });
  f.sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(net.stats().flows_cancelled, 1u);

  // After completion: cancel must refuse (the flow already delivered).
  bool done2 = false;
  const FlowId id2 = net.transfer(0, 2, 1000.0, [&] { done2 = true; });
  f.sim.run();
  EXPECT_TRUE(done2);
  EXPECT_FALSE(net.cancel(id2));
  EXPECT_FALSE(net.cancel(id2));
  EXPECT_EQ(net.stats().flows_cancelled, 1u);
}

TEST(Network, CancelFromSameBatchCompletionSuppressesDelivery) {
  // Two contended flows on identical paths finish in the same fair-share
  // completion batch, and each one's completion callback cancels the other —
  // the exact shape of cancel-on-quorum, where the winning fetch's callback
  // reconstructs the block and cancels the losers. Whichever flow the batch
  // dispatches first must win: its cancel suppresses the other's queued
  // delivery (and a repeat cancel is a no-op), and the victim's callback
  // never fires. The test is agnostic to the batch's internal order.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  FlowId a = 0, b = 0;
  int fired = 0;
  bool a_suppressed_b = false, b_suppressed_a = false;
  double batch_at = -1.0;
  a = net.transfer(0, 2, 1000.0, [&] {
    ++fired;
    batch_at = f.sim.now();
    a_suppressed_b = net.cancel(b);
    EXPECT_FALSE(net.cancel(b));  // idempotent on the suppressed victim
  });
  b = net.transfer(1, 3, 1000.0, [&] {
    ++fired;
    batch_at = f.sim.now();
    b_suppressed_a = net.cancel(a);
    EXPECT_FALSE(net.cancel(a));
  });
  f.sim.run();
  // Both shared rack0-up/rack1-down at 50 B/s each: the batch fires at 20 s.
  EXPECT_NEAR(batch_at, 20.0, 1e-6);
  EXPECT_EQ(fired, 1);
  EXPECT_NE(a_suppressed_b, b_suppressed_a);  // exactly one cancel landed
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_EQ(net.stats().flows_cancelled, 1u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, CancelAfterDeliveryFromLaterBatchReturnsFalse) {
  // The cancel target completed in an earlier batch: cancel() must report
  // failure instead of double-counting the flow as cancelled.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  FlowId early = 0;
  bool early_done = false;
  bool late_saw_cancel = true;
  early = net.transfer(0, 2, 500.0, [&] { early_done = true; });  // 5 s
  // Opposite direction: disjoint links, finishes alone at 10 s.
  net.transfer(2, 0, 1000.0, [&] { late_saw_cancel = net.cancel(early); });
  f.sim.run();
  EXPECT_TRUE(early_done);
  EXPECT_FALSE(late_saw_cancel);
  EXPECT_EQ(net.stats().flows_completed, 2u);
  EXPECT_EQ(net.stats().flows_cancelled, 0u);
}

// --- exactness on the perf harness's burst workload --------------------------

struct BurstOutcome {
  double checksum = 0.0;  ///< sum of completion_time * flow_tag
  std::uint64_t ops = 0;  ///< transfers started + cancellations attempted
  std::uint64_t completed = 0;
};

/// The network macro of bench/perf_regression: per wave a 16-source
/// degraded-read fan-in onto one reader, an 8x8 same-instant shuffle burst,
/// and a mid-flight cancel of every third fan-in flow, on the paper's 4x10
/// topology with default links. The checksum is order-insensitive but
/// moves with any single completion time.
BurstOutcome run_burst(int waves, bool cross_check) {
  sim::Simulator sim;
  const Topology topo(4, 10);
  const LinkConfig links;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(cross_check);
  util::Rng rng(24601);
  BurstOutcome out;
  long tag = 0;
  const auto deliver = [&](long mytag) {
    return [&out, &sim, mytag] {
      out.checksum += sim.now() * static_cast<double>(mytag);
      ++out.completed;
    };
  };
  for (int w = 0; w < waves; ++w) {
    const double t = w * 1.0;
    const auto fan_dst = static_cast<NodeId>(rng.uniform_int(0, 39));
    auto fan_ids = std::make_shared<std::vector<FlowId>>();
    for (int i = 0; i < 16; ++i) {
      const auto src = static_cast<NodeId>(rng.uniform_int(0, 39));
      const double size = rng.uniform(2e7, 6e7);
      const long mytag = ++tag;
      sim.schedule_at(t, [&, fan_ids, src, fan_dst, size, mytag] {
        ++out.ops;
        fan_ids->push_back(net.transfer(src, fan_dst, size, deliver(mytag)));
      });
    }
    for (int m = 0; m < 8; ++m) {
      const auto ms = static_cast<NodeId>(rng.uniform_int(0, 39));
      for (int r = 0; r < 8; ++r) {
        const auto rd = static_cast<NodeId>(rng.uniform_int(0, 39));
        const double size = rng.uniform(2e6, 6e6);
        const long mytag = ++tag;
        sim.schedule_at(t + 0.4, [&, ms, rd, size, mytag] {
          ++out.ops;
          net.transfer(ms, rd, size, deliver(mytag));
        });
      }
    }
    sim.schedule_at(t + rng.uniform(0.2, 0.9), [&, fan_ids] {
      for (std::size_t i = 0; i < fan_ids->size(); i += 3) {
        ++out.ops;
        net.cancel((*fan_ids)[i]);
      }
    });
  }
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0);
  return out;
}

TEST(Network, FairShareBurstWorkloadMatchesPinnedNaiveChecksum) {
  // Pinned from the pre-aggregation engine, which re-ran a full per-flow
  // water-filling pass on every op. The batched, class-aggregated engine
  // must reproduce it bit for bit, both with the naive per-flow cross-check
  // on (so every recompute is also verified against the reference pass) and
  // plain.
  constexpr double kChecksum = 0x1.b7ce57b66677ep+28;
  for (const bool cross_check : {true, false}) {
    SCOPED_TRACE(cross_check ? "cross_check" : "plain");
    const BurstOutcome out = run_burst(60, cross_check);
    EXPECT_EQ(out.checksum, kChecksum);
    EXPECT_EQ(out.ops, 5160u);
    EXPECT_EQ(out.completed, 4537u);
  }
}

TEST(Network, FairShareMultiComponentBatchesMatchPinnedChecksum) {
  // The burst workload above is one congestion component per batch. Here
  // every rack runs its own fan-in over limited node links, started at one
  // instant: each rack is a separate component and a batch holds several,
  // each water-filled as soon as its flood-fill closes. Completion times
  // must match the checksum pinned from the engine that collected every
  // component before water-filling any, with and without the naive
  // cross-check.
  constexpr double kChecksum = 0x1.55492ff77f36bp+21;
  const auto run = [](bool cross_check) {
    sim::Simulator sim;
    const Topology topo(4, 10);
    LinkConfig links;
    links.node_up = util::megabits_per_sec(400.0);
    links.node_down = util::megabits_per_sec(400.0);
    Network net(sim, topo, links);
    net.set_fair_share_cross_check(cross_check);
    util::Rng rng(31337);
    BurstOutcome out;
    long tag = 0;
    for (int w = 0; w < 40; ++w) {
      for (int rack = 0; rack < 4; ++rack) {
        const auto reader =
            static_cast<NodeId>(rack * 10 + rng.uniform_int(0, 9));
        for (int i = 0; i < 4; ++i) {
          const auto src =
              static_cast<NodeId>(rack * 10 + rng.uniform_int(0, 9));
          const double size = rng.uniform(1e6, 2e7);
          const long mytag = ++tag;
          sim.schedule_at(w * 0.5, [&, src, reader, size, mytag] {
            net.transfer(src, reader, size, [&out, &sim, mytag] {
              out.checksum += sim.now() * static_cast<double>(mytag);
              ++out.completed;
            });
          });
        }
      }
    }
    sim.run();
    return std::pair{out, net.stats()};
  };
  const auto [checked, checked_stats] = run(true);
  const auto [plain, stats] = run(false);
  EXPECT_EQ(checked.checksum, kChecksum);
  EXPECT_EQ(plain.checksum, kChecksum);
  EXPECT_EQ(checked.completed, 640u);
  EXPECT_EQ(plain.completed, 640u);
  // More component passes than batches: some batch held several components.
  EXPECT_GT(stats.component_recomputes, 0u);
  EXPECT_GT(stats.fast_paths + stats.component_recomputes,
            stats.batched_recomputes);
  EXPECT_EQ(stats.component_recomputes, checked_stats.component_recomputes);
}

TEST(Network, FairShareTiedClassMembersMatchPinnedChecksum) {
  // Stresses the order in which members of one flow class finish: every
  // class is filled with equal-size flows started at one instant (so their
  // residuals tie, and clamp to zero together at the finish line), some
  // members are cancelled from the middle of a class mid-flight, and each
  // wave adds a hedged pair whose first-delivered callback cancels its
  // partner finishing in the same completion batch. The order hash pins
  // the delivery sequence, not just the completion times; the checksum was
  // pinned from the engine that gathered each batch from a hash map and
  // sorted it by flow id, with and without the naive cross-check.
  constexpr double kChecksum = 0x1.0314797104f17p+22;
  constexpr std::uint64_t kOrderHash = 0x8bea3496b94dfd0eull;
  struct Outcome {
    double checksum = 0.0;
    std::uint64_t order_hash = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;  ///< cancel() calls that returned true
  };
  const auto run = [](bool cross_check) {
    sim::Simulator sim;
    const Topology topo(4, 10);
    const LinkConfig links;  // only the rack links contend
    Network net(sim, topo, links);
    net.set_fair_share_cross_check(cross_check);
    util::Rng rng(8675309);
    Outcome out;
    long tag = 0;
    const auto deliver = [&out, &sim](long mytag) {
      out.checksum += sim.now() * static_cast<double>(mytag);
      out.order_hash = out.order_hash * 1099511628211ull +
                       static_cast<std::uint64_t>(mytag);
      ++out.completed;
    };
    for (int w = 0; w < 30; ++w) {
      const double t = w * 0.25;
      auto wave = std::make_shared<std::vector<FlowId>>();
      for (int p = 0; p < 4; ++p) {
        const int src_rack = static_cast<int>(rng.uniform_int(0, 3));
        const int dst_rack =
            (src_rack + 1 + static_cast<int>(rng.uniform_int(0, 2))) % 4;
        const double size = rng.uniform(1e6, 2e7);
        for (int i = 0; i < 8; ++i) {
          const auto src =
              static_cast<NodeId>(src_rack * 10 + rng.uniform_int(0, 9));
          const auto dst =
              static_cast<NodeId>(dst_rack * 10 + rng.uniform_int(0, 9));
          const long mytag = ++tag;
          sim.schedule_at(t, [&, wave, src, dst, size, mytag] {
            wave->push_back(
                net.transfer(src, dst, size, [&deliver, mytag] {
                  deliver(mytag);
                }));
          });
        }
      }
      // A hedged pair: equal flows on one path, each cancelling the other
      // on delivery. They finish in one batch, so the first delivered wins.
      const auto src = static_cast<NodeId>(rng.uniform_int(0, 9));
      const auto dst = static_cast<NodeId>(20 + rng.uniform_int(0, 9));
      const double size = rng.uniform(1e6, 2e7);
      const long tag_a = ++tag;
      const long tag_b = ++tag;
      sim.schedule_at(t, [&, src, dst, size, tag_a, tag_b] {
        auto pair = std::make_shared<std::pair<FlowId, FlowId>>();
        pair->first = net.transfer(src, dst, size, [&, pair, tag_a] {
          deliver(tag_a);
          if (net.cancel(pair->second)) ++out.cancelled;
        });
        pair->second = net.transfer(src, dst, size, [&, pair, tag_b] {
          deliver(tag_b);
          if (net.cancel(pair->first)) ++out.cancelled;
        });
      });
      // Cancel every third flow of the wave, starting mid-class.
      sim.schedule_at(t + rng.uniform(0.02, 0.2), [&, wave] {
        for (std::size_t i = 1; i < wave->size(); i += 3) {
          if (net.cancel((*wave)[i])) ++out.cancelled;
        }
      });
    }
    sim.run();
    EXPECT_EQ(net.active_flow_count(), 0);
    EXPECT_EQ(out.completed + out.cancelled, net.stats().flows_started);
    return out;
  };
  for (const bool cross_check : {true, false}) {
    SCOPED_TRACE(cross_check ? "cross_check" : "plain");
    const Outcome out = run(cross_check);
    EXPECT_EQ(out.checksum, kChecksum);
    EXPECT_EQ(out.order_hash, kOrderHash);
    EXPECT_EQ(out.completed, 660u);
    EXPECT_EQ(out.cancelled, 360u);
  }
}

TEST(Network, FairShareMultiRoundWaterfillMatchesPinnedChecksum) {
  // Multi-round water-filling: node, rack and core links all limited, so a
  // component freezes its classes over several rounds, and a frozen class
  // crosses non-bottleneck links of which some drain in that same round
  // and some stay live for later rounds. Classes have unequal
  // multiplicities (1-4 flows on one node pair, of unequal sizes). The
  // checksum was pinned from the engine that subtracted every frozen
  // member from every link it crosses, drained or not, with and without
  // the naive cross-check.
  constexpr double kChecksum = 0x1.5618d2f93e6a5p+22;
  struct Outcome {
    double checksum = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
  };
  const auto run = [](bool cross_check) {
    sim::Simulator sim;
    const Topology topo(4, 10);
    LinkConfig links;
    links.node_up = util::megabits_per_sec(600.0);
    links.node_down = util::megabits_per_sec(450.0);
    links.rack_up = util::gigabits_per_sec(1.0);
    links.rack_down = util::megabits_per_sec(800.0);
    links.core = util::gigabits_per_sec(2.5);
    Network net(sim, topo, links);
    net.set_fair_share_cross_check(cross_check);
    util::Rng rng(4242);
    Outcome out;
    long tag = 0;
    for (int w = 0; w < 50; ++w) {
      const double t = w * 0.3;
      auto wave = std::make_shared<std::vector<FlowId>>();
      for (int g = 0; g < 6; ++g) {
        const auto src = static_cast<NodeId>(rng.uniform_int(0, 39));
        const auto dst = static_cast<NodeId>(rng.uniform_int(0, 39));
        const int multiplicity = static_cast<int>(rng.uniform_int(1, 4));
        const double size = rng.uniform(5e6, 4e7);
        for (int i = 0; i < multiplicity; ++i) {
          const long mytag = ++tag;
          const double bytes = size * (1.0 + 0.125 * i);
          sim.schedule_at(t, [&, wave, src, dst, bytes, mytag] {
            wave->push_back(net.transfer(src, dst, bytes, [&out, &sim, mytag] {
              out.checksum += sim.now() * static_cast<double>(mytag);
              ++out.completed;
            }));
          });
        }
      }
      sim.schedule_at(t + rng.uniform(0.05, 0.6), [&, wave] {
        for (std::size_t i = 2; i < wave->size(); i += 5) {
          if (net.cancel((*wave)[i])) ++out.cancelled;
        }
      });
    }
    sim.run();
    EXPECT_EQ(net.active_flow_count(), 0);
    EXPECT_EQ(out.completed + out.cancelled, net.stats().flows_started);
    EXPECT_GT(net.stats().component_recomputes, 0u);
    return out;
  };
  for (const bool cross_check : {true, false}) {
    SCOPED_TRACE(cross_check ? "cross_check" : "plain");
    const Outcome out = run(cross_check);
    EXPECT_EQ(out.checksum, kChecksum);
    EXPECT_EQ(out.completed, 595u);
    EXPECT_EQ(out.cancelled, 143u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModels, ContentionParamTest,
                         ::testing::Values(ContentionModel::kMaxMinFairShare,
                                           ContentionModel::kExclusiveFifo),
                         [](const auto& info) {
                           return info.param ==
                                          ContentionModel::kMaxMinFairShare
                                      ? "FairShare"
                                      : "ExclusiveFifo";
                         });

}  // namespace
}  // namespace dfs::net
