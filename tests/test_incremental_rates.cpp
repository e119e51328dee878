// Differential tests for incremental max-min recomputation: with
// set_verify_rates(true), FlowNetwork re-runs the retained full progressive
// filling after EVERY end-of-instant flush and PROPHET_CHECKs each draining
// flow's rate bit-identical to it — so simply driving churn and dynamics
// scenarios to completion under verify mode IS the proof. The scenarios
// cover random flow churn, capacity scale/set, outages (park + resume) and
// trace-CSV-driven cluster dynamics, on star and oversubscribed leaf-spine
// fabrics, plus chaos-style fault cells (crash/loss) at cluster level.
//
// Cross-mode runs (kIncremental vs kFull) are compared on conserved
// quantities: the two modes assign bit-identical *rates*, and fixed-point
// settlement makes byte totals and completion instants functions of those
// rates alone, so the totals must match exactly. Full event streams are not
// compared: kFull reschedules every completion on every change, so
// same-nanosecond events may fire in a different order.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/multi_job.hpp"
#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "dnn/model_zoo.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"

namespace prophet::net {
namespace {

using namespace prophet::literals;

TcpCostModel small_overhead_model() {
  TcpCostParams params;
  params.per_task_overhead = Duration::micros(50);
  params.slow_start = false;
  return TcpCostModel{params};
}

struct Fixture {
  sim::Simulator sim;
  FlowNetwork net;
  explicit Fixture(RebalanceMode mode = RebalanceMode::kIncremental)
      : net{sim, small_overhead_model(), mode} {}
};

// Random churn: `flows` transfers between random node pairs at random start
// times, a third of them cancelled mid-flight. Returns completed count.
int drive_churn(Fixture& f, const std::vector<NodeId>& nodes,
                std::uint64_t seed, int flows) {
  Rng rng{seed};
  int completed = 0;
  std::vector<FlowId> started;
  started.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    auto dst = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    if (dst == src) dst = (dst + 1) % nodes.size();
    const Bytes size = Bytes::kib(rng.uniform_int(64, 4096));
    const Duration at = Duration::millis(rng.uniform_int(0, 40));
    f.sim.schedule_after(at, [&f, &nodes, &completed, &started, src, dst, size] {
      started.push_back(f.net.start_flow(nodes[src], nodes[dst], size,
                                         [&completed](FlowId) { ++completed; }));
    });
    if (i % 3 == 0) {
      // Cancel a previously started flow (if any) mid-run; stale ids no-op.
      const Duration cancel_at = at + Duration::millis(rng.uniform_int(1, 15));
      f.sim.schedule_after(cancel_at, [&f, &started, i] {
        if (!started.empty()) {
          f.net.cancel_flow(started[static_cast<std::size_t>(i) % started.size()]);
        }
      });
    }
  }
  f.sim.run();
  return completed;
}

TEST(IncrementalRates, StarChurnBitIdenticalToFull) {
  Fixture f;
  f.net.set_verify_rates(true);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(f.net.add_node("n" + std::to_string(i),
                                   Bandwidth::mbps(800), Bandwidth::mbps(600)));
  }
  const int completed = drive_churn(f, nodes, 0xfeed, 50);
  EXPECT_GT(completed, 0);
}

TEST(IncrementalRates, StarChurnWithCapacityDynamics) {
  Fixture f;
  f.net.set_verify_rates(true);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(f.net.add_node("n" + std::to_string(i), Bandwidth::gbps(1),
                                   Bandwidth::gbps(1)));
  }
  // Capacity scale/set + a full outage landing mid-churn on several NICs.
  f.sim.schedule_after(5_ms, [&f, &nodes] {
    f.net.set_capacity(nodes[0], Direction::kTx, Bandwidth::mbps(250));
  });
  f.sim.schedule_after(9_ms, [&f, &nodes] {
    f.net.set_capacity(nodes[1], Direction::kRx, Bandwidth::mbps(120));
  });
  f.sim.schedule_after(12_ms, [&f, &nodes] { f.net.set_link_up(nodes[2], false); });
  f.sim.schedule_after(20_ms, [&f, &nodes] { f.net.set_link_up(nodes[2], true); });
  f.sim.schedule_after(26_ms, [&f, &nodes] {
    f.net.set_capacity(nodes[0], Direction::kTx, Bandwidth::gbps(1));
  });
  const int completed = drive_churn(f, nodes, 0xbeef, 40);
  EXPECT_GT(completed, 0);
}

TEST(IncrementalRates, LeafSpineOversubscribedChurn) {
  Fixture f;
  f.net.set_verify_rates(true);
  // Two racks of three hosts behind 4:1-oversubscribed uplinks: cross-rack
  // flows contend on the shared rack links, so components span racks.
  const RackId r0 = f.net.add_rack("r0", Bandwidth::mbps(750), Bandwidth::mbps(750));
  const RackId r1 = f.net.add_rack("r1", Bandwidth::mbps(750), Bandwidth::mbps(750));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    const NodeId n = f.net.add_node("h" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.net.assign_rack(n, i < 3 ? r0 : r1);
    nodes.push_back(n);
  }
  // Rack-uplink dynamics: scale, outage (flows park at zero and resume), set.
  const LinkId up0 = f.net.rack_link(r0, Direction::kTx);
  f.sim.schedule_after(6_ms, [&f, up0] {
    f.net.set_link_capacity(up0, Bandwidth::mbps(300));
  });
  f.sim.schedule_after(11_ms, [&f, up0] { f.net.set_link_state(up0, false); });
  f.sim.schedule_after(18_ms, [&f, up0] { f.net.set_link_state(up0, true); });
  f.sim.schedule_after(24_ms, [&f, up0] {
    f.net.set_link_capacity(up0, Bandwidth::mbps(750));
  });
  const int completed = drive_churn(f, nodes, 0xabcd, 60);
  EXPECT_GT(completed, 0);
}

TEST(IncrementalRates, OutageParksFlowsAtZeroAndVerifies) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId a = f.net.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId b = f.net.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  bool done = false;
  const FlowId id = f.net.start_flow(a, b, Bytes::of(125'000'000),
                                     [&done](FlowId) { done = true; });
  f.sim.schedule_after(200_ms, [&f, a] { f.net.set_link_up(a, false); });
  f.sim.schedule_after(500_ms, [&f, id] {
    // Parked at rate zero: remaining bytes frozen, flow still live.
    EXPECT_TRUE(f.net.flow_active(id));
    EXPECT_EQ(f.net.flow_rate(id).bytes_per_second(), 0.0);
  });
  f.sim.schedule_after(700_ms, [&f, a] { f.net.set_link_up(a, true); });
  f.sim.run();
  EXPECT_TRUE(done);
  // 1 s of draining at line rate + 0.5 s parked.
  EXPECT_NEAR(f.sim.now().to_seconds(), 1.5, 1e-3);
}

// The two modes must agree on conserved quantities: every flow completes,
// and each access link carries the same byte total, to the byte (settlement
// splits differ, and exact accounting makes that immaterial).
TEST(IncrementalRates, CrossModeByteConservation) {
  std::vector<std::int64_t> totals[2];
  int completed[2] = {0, 0};
  const RebalanceMode modes[2] = {RebalanceMode::kIncremental,
                                  RebalanceMode::kFull};
  for (int m = 0; m < 2; ++m) {
    Fixture f{modes[m]};
    std::vector<NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
      nodes.push_back(f.net.add_node("n" + std::to_string(i),
                                     Bandwidth::mbps(900), Bandwidth::mbps(700)));
    }
    f.sim.schedule_after(7_ms, [&f, &nodes] {
      f.net.set_capacity(nodes[3], Direction::kRx, Bandwidth::mbps(200));
    });
    completed[m] = drive_churn(f, nodes, 0x5eed, 45);
    for (const NodeId n : nodes) {
      totals[m].push_back(f.net.total_bytes(n, Direction::kTx));
      totals[m].push_back(f.net.total_bytes(n, Direction::kRx));
    }
  }
  EXPECT_EQ(completed[0], completed[1]);
  ASSERT_EQ(totals[0].size(), totals[1].size());
  for (std::size_t i = 0; i < totals[0].size(); ++i) {
    EXPECT_EQ(totals[0][i], totals[1][i]) << "link index " << i;
  }
}

// Swap-and-pop removal must not disturb the admission-order tie-break:
// equal flows started in order still freeze in admission order after
// unrelated cancellations shuffle the active slab.
TEST(IncrementalRates, CancellationPreservesAdmissionOrdering) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  std::vector<NodeId> workers;
  for (int i = 0; i < 8; ++i) {
    workers.push_back(f.net.add_node("w" + std::to_string(i),
                                     Bandwidth::gbps(1), Bandwidth::gbps(1)));
  }
  std::vector<FlowId> ids;
  int completed = 0;
  for (const NodeId w : workers) {
    ids.push_back(f.net.start_flow(w, ps, Bytes::of(10'000'000),
                                   [&completed](FlowId) { ++completed; }));
  }
  // Cancel from the middle and the front: each removal swap-and-pops the
  // active list, then the next rebalance must still walk by admission.
  f.sim.schedule_after(10_ms, [&f, &ids] { f.net.cancel_flow(ids[3]); });
  f.sim.schedule_after(12_ms, [&f, &ids] { f.net.cancel_flow(ids[0]); });
  f.sim.schedule_after(14_ms, [&f, &ids] { f.net.cancel_flow(ids[5]); });
  f.sim.run();
  EXPECT_EQ(completed, 5);
}

// Replay determinism at cluster level: two incremental runs of the same
// config produce identical simulations.
TEST(IncrementalRates, IncrementalClusterReplaysIdentically) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 3;
  cfg.batch = 32;
  cfg.iterations = 6;
  cfg.seed = 7;
  cfg.strategy = ps::StrategyConfig::fifo();
  const auto first = ps::run_cluster(cfg, 1);
  const auto replay = ps::run_cluster(cfg, 1);
  EXPECT_EQ(first.events_fired, replay.events_fired);
  EXPECT_EQ(first.simulated_time.count_nanos(), replay.simulated_time.count_nanos());
}

// Cluster-level differential check under a trace-CSV dynamics plan
// (bandwidth scale + set + outages on named links): every rebalance across
// the whole training run is verified against the full recompute.
TEST(IncrementalRates, ClusterDynamicsTraceVerified) {
  const std::string path = ::testing::TempDir() + "/incr_rates_trace.csv";
  {
    std::ofstream out{path};
    out << "time_s,event,target,value\n"
        << "0.02,bandwidth_scale,0,0.4\n"
        << "0.05,bandwidth_gbps,1,0.5\n"
        << "0.08,outage_start,0,0\n"
        << "0.11,outage_end,0,0\n"
        << "0.15,bandwidth_scale,*,0.7\n";
  }
  std::string error;
  const auto plan = net::DynamicsPlan::from_trace_csv(path, &error);
  ASSERT_TRUE(plan.has_value()) << error;

  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 3;
  cfg.batch = 32;
  cfg.iterations = 8;
  cfg.seed = 11;
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 3;
  cfg.dynamics = *plan;
  cfg.verify_rates = true;
  const auto result = ps::run_cluster(cfg, 1);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, cfg.iterations);
  }
}

// Chaos-style fault cell (transport loss + worker crash + PS failover) with
// verification on: crash-driven flow cancellations and recovery re-pushes
// must keep incremental rates bit-identical throughout.
TEST(IncrementalRates, ClusterFaultPlanVerified) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 10;
  cfg.seed = 3;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = ps::StrategyConfig::fifo();
  cfg.reliability.retry_budget = 64;
  cfg.checkpoint_period = 40_ms;
  cfg.dynamics.loss_rate(10_ms, 0.05);
  cfg.dynamics.worker_crash(60_ms, 25_ms, 1);
  cfg.dynamics.ps_crash(170_ms, 20_ms);
  cfg.verify_rates = true;
  const auto result = ps::run_cluster(cfg, 1);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, cfg.iterations);
  }
}

// --- Rate-group cells -------------------------------------------------------
// Bottleneck-homogeneous incasts (>= kMinGroupFlows flows at one common rate
// over one common bottleneck) are promoted to rate groups and complete via
// the O(log n) group fast path. Verify mode still re-runs the full progressive
// filling at every group boundary (form/admit/remove/capacity change), so
// finishing under set_verify_rates proves the fast path bit-identical.

// Staggered admissions into one PS NIC: the group forms at the 8th flow,
// later arrivals join through the O(log n) admit path, and completions pop
// off the group heap without a component rebalance.
TEST(RateGroups, StaggeredIncastFormsGroupAndVerifies) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int completed = 0;
  bool saw_group = false;
  for (int i = 0; i < 12; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.sim.schedule_after(Duration::millis(i), [&f, &completed, w, ps] {
      f.net.start_flow(w, ps, Bytes::of(8'000'000),
                       [&completed](FlowId) { ++completed; });
    });
  }
  f.sim.schedule_after(30_ms, [&f, &saw_group] {
    saw_group = f.net.rate_group_count() > 0;
  });
  f.sim.run();
  EXPECT_EQ(completed, 12);
  EXPECT_TRUE(saw_group);
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_GE(stats.group_forms, 1u);
  EXPECT_GT(stats.group_fast_events, 0u);
  EXPECT_GT(stats.verify_checks, 0u);
  EXPECT_EQ(stats.verify_mismatches, 0u);
}

// Mid-incast dynamics on the bottleneck itself: capacity scale down and up
// re-rates the group in place (one boundary, no rebalance); an outage parks
// the whole incast at zero (slow path dissolves the group) and recovery
// re-forms it. All of it bit-checked against the full recompute.
TEST(RateGroups, MidIncastBottleneckDynamicsVerified) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.net.start_flow(w, ps, Bytes::of(16'000'000),
                     [&completed](FlowId) { ++completed; });
  }
  f.sim.schedule_after(100_ms, [&f, ps] {
    f.net.set_capacity(ps, Direction::kRx, Bandwidth::mbps(400));
  });
  f.sim.schedule_after(250_ms, [&f, ps] {
    f.net.set_capacity(ps, Direction::kRx, Bandwidth::gbps(1));
  });
  f.sim.schedule_after(400_ms, [&f, ps] { f.net.set_link_up(ps, false); });
  f.sim.schedule_after(550_ms, [&f, ps] {
    // Parked: the outage dissolved the group and froze every flow at zero.
    EXPECT_EQ(f.net.rate_group_count(), 0u);
    f.net.set_link_up(ps, true);
  });
  f.sim.run();
  EXPECT_EQ(completed, 12);
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_GE(stats.group_forms, 2u);  // re-formed after the outage cleared
  EXPECT_GE(stats.group_dissolves, 1u);
  EXPECT_EQ(stats.verify_mismatches, 0u);
}

// Fault-style mass abort: half the group's flows are cancelled mid-incast
// (what a worker crash's abort_all does), each removal re-rating the
// surviving group members without dissolving the group.
TEST(RateGroups, AbortingHalfTheGroupKeepsRatesVerified) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  std::vector<FlowId> ids;
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    ids.push_back(f.net.start_flow(w, ps, Bytes::of(16'000'000),
                                   [&completed](FlowId) { ++completed; }));
  }
  f.sim.schedule_after(50_ms, [&f, &ids] {
    ASSERT_GT(f.net.rate_group_count(), 0u);
    for (std::size_t i = 0; i < ids.size(); i += 2) f.net.cancel_flow(ids[i]);
  });
  f.sim.run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(f.net.rebalance_stats().verify_mismatches, 0u);
}

// Cluster-level crash plan on an 8-worker incast: the crashes abort the
// crashed workers' in-flight push flows out of live rate groups, recovery
// re-pushes, and every rebalance across the run is verified bit-identical.
TEST(RateGroups, ClusterCrashPlanAbortsGroupedFlowsVerified) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 8;
  cfg.batch = 32;
  cfg.iterations = 6;
  cfg.seed = 13;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = ps::StrategyConfig::fifo();
  cfg.reliability.retry_budget = 64;
  for (std::size_t w = 0; w < 4; ++w) {
    cfg.dynamics.worker_crash(
        Duration::millis(static_cast<std::int64_t>(40 + 5 * w)), 20_ms, w);
  }
  cfg.dynamics.sort();  // crash/recover pairs interleave across workers
  cfg.verify_rates = true;
  const auto result = ps::run_cluster(cfg, 1);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, cfg.iterations);
  }
  EXPECT_EQ(result.rebalance.verify_mismatches, 0u);
}

// --- Fixed-point settlement ---------------------------------------------------

struct IncastRun {
  std::vector<std::int64_t> done_ns;  // per flow, -1 if it never completed
  std::vector<std::int64_t> link_bytes;
  std::vector<double> bins;  // every tracker bin, PS ingress first
  bool tracker_sums_match = true;
  RebalanceStats stats;
};

// `flows` workers push odd-sized flows into a 1 Gbps PS NIC at staggered
// starts, under verify mode, with 1 ms trackers on every access link. The
// PS ingress bottlenecks everyone, so the incast runs as a rate group. With
// a nonzero `poll_seed`, 300 seeded instants each settle one random flow
// (flow_remaining_bytes) and every fifth one the whole PS ingress
// (link_total_bytes), splitting settlements at arbitrary mid-segment points.
IncastRun run_incast(int flows, std::uint64_t poll_seed) {
  Fixture f;
  f.net.set_verify_rates(true);
  const Duration bin = 1_ms;
  const Duration horizon = Duration::seconds(5);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  BinnedSeries ps_rx{bin, horizon};
  f.net.attach_tracker(ps, Direction::kRx, &ps_rx);
  const auto n = static_cast<std::size_t>(flows);
  std::vector<NodeId> workers;
  std::vector<BinnedSeries> tx(n, BinnedSeries{bin, horizon});
  for (std::size_t i = 0; i < n; ++i) {
    workers.push_back(f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                     Bandwidth::gbps(1)));
    f.net.attach_tracker(workers.back(), Direction::kTx, &tx[i]);
  }
  IncastRun run;
  run.done_ns.assign(n, -1);
  std::vector<FlowId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.sim.schedule_after(Duration::micros(100 * static_cast<std::int64_t>(i)), [&, i] {
      ids[i] = f.net.start_flow(
          workers[i], ps, Bytes::of(1'000'000 + 3'331 * static_cast<std::int64_t>(i)),
          [&, i](FlowId) { run.done_ns[i] = f.sim.now().count_nanos(); });
    });
  }
  if (poll_seed != 0) {
    Rng rng{poll_seed};
    const std::int64_t span_ns = static_cast<std::int64_t>(n) * 8'000'000;
    for (int k = 0; k < 300; ++k) {
      const auto at = TimePoint::from_nanos(rng.uniform_int(1, span_ns));
      const auto who = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      f.sim.schedule_at(at, [&f, &ids, ps, who, k] {
        (void)f.net.flow_remaining_bytes(ids[who]);
        if (k % 5 == 0) (void)f.net.total_bytes(ps, Direction::kRx);
      });
    }
  }
  f.sim.run();
  for (LinkId l = 0; l < f.net.link_count(); ++l) {
    run.link_bytes.push_back(f.net.link_total_bytes(l));
  }
  const auto fold = [&run](const BinnedSeries& series, std::int64_t link_bytes) {
    double sum = 0.0;
    for (std::size_t b = 0; b < series.bin_count(); ++b) {
      run.bins.push_back(series.bin_amount(b));
      sum += series.bin_amount(b);
    }
    run.tracker_sums_match =
        run.tracker_sums_match && sum == static_cast<double>(link_bytes);
  };
  fold(ps_rx, f.net.total_bytes(ps, Direction::kRx));
  for (std::size_t i = 0; i < n; ++i) {
    fold(tx[i], f.net.total_bytes(workers[i], Direction::kTx));
  }
  run.stats = f.net.rebalance_stats();
  return run;
}

// Settlement telescopes: splitting a grouped flow's settlement at arbitrary
// instants (progress polls, link-total reads) credits exactly what one
// settlement would — completion instants, link totals and every tracker bin
// are bit-equal to the unpolled run.
TEST(FixedPointSettlement, PolledIncastIsBitEqualToUnpolled) {
  const IncastRun plain = run_incast(24, 0);
  ASSERT_GE(plain.stats.group_forms, 1u);
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    const IncastRun polled = run_incast(24, seed);
    EXPECT_GT(polled.stats.flows_settled, plain.stats.flows_settled);
    EXPECT_EQ(polled.done_ns, plain.done_ns) << "seed " << seed;
    EXPECT_EQ(polled.link_bytes, plain.link_bytes) << "seed " << seed;
    EXPECT_EQ(polled.bins, plain.bins) << "seed " << seed;
    EXPECT_TRUE(polled.tracker_sums_match) << "seed " << seed;
  }
  EXPECT_TRUE(plain.tracker_sums_match);
  for (const std::int64_t t : plain.done_ns) EXPECT_GE(t, 0);
}

// A grouped member settles in O(1) when it completes (or is polled), never
// once per rate boundary it lived through: quadrupling the incast at most
// quadruples the settlements, plus slack for the slow-path flows before the
// group forms.
TEST(FixedPointSettlement, SettlementsGrowLinearlyWithIncastSize) {
  const IncastRun small = run_incast(64, 0);
  const IncastRun large = run_incast(256, 0);
  ASSERT_GE(small.stats.group_forms, 1u);
  ASSERT_GE(large.stats.group_forms, 1u);
  EXPECT_LE(static_cast<double>(large.stats.flows_settled),
            4.5 * static_cast<double>(small.stats.flows_settled));
}

// Two jobs contending across a shared oversubscribed spine, verified: job
// arrivals/departures dirty only their own component unless the spine
// couples them, and either way the rates must match the full recompute.
TEST(IncrementalRates, MultiJobLeafSpineVerified) {
  cluster::MultiJobConfig cfg;
  cfg.topology = net::TopologySpec::leaf_spine(
      /*racks=*/2, /*hosts_per_rack=*/2, Bandwidth::gbps(1),
      /*oversubscription=*/4.0);
  cfg.placement = cluster::PlacementPolicy::kFifoStripe;
  cfg.interleave = cluster::InterleavePolicy::kNone;
  cfg.verify_rates = true;
  for (std::size_t j = 0; j < 2; ++j) {
    cluster::JobSpec job;
    job.config.model = dnn::toy_cnn();
    job.config.num_workers = 1;
    job.config.batch = 32;
    job.config.iterations = 6;
    job.config.seed = 20 + j;
    job.config.strategy = ps::StrategyConfig::fifo();
    cfg.jobs.push_back(std::move(job));
  }
  const auto result = cluster::run_multi_job(cfg);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_GT(result.spine_bytes, 0);
}

// --- Coalesced same-instant rebalancing ----------------------------------------
// Contention changes only mark links dirty; one flush per simulated instant
// re-rates each affected component once. Rates in between would live for
// zero simulated time, so skipping them moves no byte and no completion.

TcpCostModel no_overhead_model() {
  TcpCostParams params;
  params.per_task_overhead = Duration::zero();
  params.slow_start = false;
  return TcpCostModel{params};
}

// A synchronized incast: k pushes leave setup on the same nanosecond, and
// the k arrivals cost one component refill, not k.
TEST(CoalescedRebalance, SameInstantArrivalsCostOneRebalance) {
  Fixture f;
  f.net.set_verify_rates(true);
  const NodeId ps = f.net.add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  constexpr int kFlows = 12;
  int completed = 0;
  for (int i = 0; i < kFlows; ++i) {
    const NodeId w = f.net.add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                    Bandwidth::gbps(1));
    f.net.start_flow(w, ps, Bytes::of(4'000'000), [&completed](FlowId) { ++completed; });
  }
  // Every flow enters drain at the end of the same 50 us setup.
  f.sim.run_until(TimePoint::origin() + 1_ms);
  const RebalanceStats& stats = f.net.rebalance_stats();
  EXPECT_EQ(stats.rebalances, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFlows - 1));
  EXPECT_EQ(stats.component_flows, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(stats.verify_checks, 1u);
  f.sim.run();
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(f.net.total_bytes(ps, Direction::kRx), kFlows * 4'000'000);
}

// In a flush only flows whose quantized rate moves are settled: an arrival
// that halves one flow's share but leaves a NIC-capped neighbour alone
// settles the one, not the component.
TEST(CoalescedRebalance, FlushSettlesOnlyReRatedFlows) {
  sim::Simulator sim;
  FlowNetwork net{sim, no_overhead_model()};
  net.set_verify_rates(true);
  const NodeId ps = net.add_node("ps", Bandwidth::gbps(10), Bandwidth::gbps(2));
  const NodeId a = net.add_node("a", Bandwidth::mbps(500), Bandwidth::gbps(10));
  const NodeId b = net.add_node("b", Bandwidth::gbps(10), Bandwidth::gbps(10));
  const NodeId c = net.add_node("c", Bandwidth::gbps(10), Bandwidth::gbps(10));
  const Bytes size = Bytes::of(50'000'000);
  int completed = 0;
  const auto done = [&completed](FlowId) { ++completed; };
  const FlowId fa = net.start_flow(a, ps, size, done);
  const FlowId fb = net.start_flow(b, ps, size, done);
  FlowId fc = 0;
  sim.schedule_after(10_ms, [&] { fc = net.start_flow(c, ps, size, done); });
  sim.run_until(TimePoint::origin() + 9_ms);
  // a is capped by its own 500 Mbps NIC; b takes the rest of the PS's 2 Gbps.
  EXPECT_EQ(net.flow_rate(fa).bytes_per_second(), 62.5e6);
  EXPECT_EQ(net.flow_rate(fb).bytes_per_second(), 187.5e6);
  const RebalanceStats before = net.rebalance_stats();
  sim.run_until(TimePoint::origin() + 10_ms);
  const RebalanceStats& after = net.rebalance_stats();
  // c's arrival splits b's share with c; a keeps its rate, so only b is
  // settled (c was admitted at this very instant).
  EXPECT_EQ(net.flow_rate(fa).bytes_per_second(), 62.5e6);
  EXPECT_EQ(net.flow_rate(fb).bytes_per_second(), 93.75e6);
  EXPECT_EQ(net.flow_rate(fc).bytes_per_second(), 93.75e6);
  EXPECT_EQ(after.rebalances - before.rebalances, 1u);
  EXPECT_EQ(after.component_flows - before.component_flows, 3u);
  EXPECT_EQ(after.flows_settled - before.flows_settled, 1u);
  sim.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(net.total_bytes(ps, Direction::kRx), 3 * size.count());
}

struct ChurnRun {
  std::vector<std::int64_t> done_ns;  // per flow, -1 if it never completed
  std::vector<std::int64_t> unsent;   // per cancel, bytes it returned
  std::vector<std::int64_t> link_bytes;
  std::vector<double> bins;  // every link's tracker bins, link order
  RebalanceStats stats;
};

// Seeded churn on a 2x3 leaf-spine where every scripted change lands on a
// 1 ms grid of 30 instants: arrivals, cancellations, link capacity changes
// and link down/up pairs pile up on shared nanoseconds, and flow sizes in
// whole 125 kB units put many completions on the grid too.
ChurnRun run_same_instant_churn(RebalanceMode mode, std::uint64_t seed) {
  sim::Simulator sim;
  FlowNetwork net{sim, no_overhead_model(), mode};
  net.set_verify_rates(true);
  std::vector<NodeId> hosts;
  for (int r = 0; r < 2; ++r) {
    const RackId rack = net.add_rack("r" + std::to_string(r), Bandwidth::mbps(1500),
                                     Bandwidth::mbps(1500));
    for (int h = 0; h < 3; ++h) {
      hosts.push_back(net.add_node("h" + std::to_string(3 * r + h), Bandwidth::gbps(1),
                                   Bandwidth::gbps(1)));
      net.assign_rack(hosts.back(), rack);
    }
  }
  std::vector<BinnedSeries> trackers(net.link_count(),
                                     BinnedSeries{1_ms, Duration::seconds(2)});
  for (LinkId l = 0; l < net.link_count(); ++l) net.attach_link_tracker(l, &trackers[l]);

  Rng rng{seed};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto on_grid = [&rng](std::int64_t lo, std::int64_t hi) {
    return TimePoint::origin() + Duration::millis(rng.uniform_int(lo, hi));
  };
  constexpr std::size_t kFlows = 60;
  ChurnRun run;
  run.done_ns.assign(kFlows, -1);
  std::vector<FlowId> ids(kFlows, 0);  // 0 never names a live flow
  for (std::size_t i = 0; i < kFlows; ++i) {
    const std::size_t src = pick(hosts.size());
    const std::size_t dst = (src + 1 + pick(hosts.size() - 1)) % hosts.size();
    const Bytes size = Bytes::of(125'000 * rng.uniform_int(1, 8));
    sim.schedule_at(on_grid(0, 29), [&, i, src, dst, size] {
      ids[i] = net.start_flow(hosts[src], hosts[dst], size, [&, i](FlowId) {
        run.done_ns[i] = sim.now().count_nanos();
      });
    });
  }
  run.unsent.assign(15, -1);
  for (std::size_t k = 0; k < run.unsent.size(); ++k) {
    const std::size_t victim = pick(kFlows);
    sim.schedule_at(on_grid(0, 29), [&, k, victim] {
      run.unsent[k] = net.cancel_flow(ids[victim]).count();
    });
  }
  const Bandwidth caps[4] = {Bandwidth::mbps(250), Bandwidth::mbps(500),
                             Bandwidth::gbps(1), Bandwidth::mbps(1500)};
  for (int k = 0; k < 8; ++k) {
    const auto l = static_cast<LinkId>(pick(net.link_count()));
    const Bandwidth cap = caps[pick(4)];
    sim.schedule_at(on_grid(0, 29), [&net, l, cap] { net.set_link_capacity(l, cap); });
  }
  for (int k = 0; k < 4; ++k) {
    const auto l = static_cast<LinkId>(pick(net.link_count()));
    const TimePoint down = on_grid(0, 29);
    const TimePoint up = down + Duration::millis(rng.uniform_int(1, 5));
    sim.schedule_at(down, [&net, l] { net.set_link_state(l, false); });
    sim.schedule_at(up, [&net, l] { net.set_link_state(l, true); });
  }
  sim.run();
  for (LinkId l = 0; l < net.link_count(); ++l) {
    run.link_bytes.push_back(net.link_total_bytes(l));
    for (std::size_t b = 0; b < trackers[l].bin_count(); ++b) {
      run.bins.push_back(trackers[l].bin_amount(b));
    }
  }
  run.stats = net.rebalance_stats();
  return run;
}

// Property: the coalesced engine and the eager whole-network reference agree
// on every completion nanosecond, every cancellation's unsent bytes, every
// link total and every tracker bin, with verify mode checking the rates
// after each flush.
TEST(CoalescedRebalance, SameInstantChurnMatchesFullRecompute) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const ChurnRun incr = run_same_instant_churn(RebalanceMode::kIncremental, seed);
    const ChurnRun full = run_same_instant_churn(RebalanceMode::kFull, seed);
    EXPECT_GT(incr.stats.coalesced, 0u) << "seed " << seed;
    EXPECT_LT(incr.stats.rebalances, full.stats.rebalances) << "seed " << seed;
    EXPECT_EQ(incr.stats.verify_mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(incr.done_ns, full.done_ns) << "seed " << seed;
    EXPECT_EQ(incr.unsent, full.unsent) << "seed " << seed;
    EXPECT_EQ(incr.link_bytes, full.link_bytes) << "seed " << seed;
    EXPECT_EQ(incr.bins, full.bins) << "seed " << seed;
  }
}

// A network destroyed mid-instant — with a live rate group's completion
// queued, a flow still in setup, a draining flow's completion queued and a
// flush pending — leaves nothing behind on the simulator, which keeps running.
TEST(FlowNetworkLifetime, DestroyedMidInstantLeavesSimulatorClean) {
  sim::Simulator sim;
  auto net = std::make_unique<FlowNetwork>(sim, small_overhead_model());
  const NodeId ps = net->add_node("ps", Bandwidth::gbps(1), Bandwidth::gbps(1));
  int completed = 0;
  const auto done = [&completed](FlowId) { ++completed; };
  for (int i = 0; i < 12; ++i) {
    const NodeId w = net->add_node("w" + std::to_string(i), Bandwidth::gbps(1),
                                   Bandwidth::gbps(1));
    net->start_flow(w, ps, Bytes::of(16'000'000), done);
  }
  const NodeId u = net->add_node("u", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId v = net->add_node("v", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const NodeId x = net->add_node("x", Bandwidth::gbps(1), Bandwidth::gbps(1));
  net->start_flow(u, v, Bytes::of(100'000'000), done);
  bool after = false;
  sim.schedule_after(20_ms, [&] {
    ASSERT_GT(net->rate_group_count(), 0u);
    net->start_flow(x, u, Bytes::of(1'000'000), done);         // still in setup
    net->set_capacity(x, Direction::kRx, Bandwidth::mbps(500));  // flush pending
    net.reset();
    EXPECT_EQ(sim.pending_events(), 1u);  // only the event below
  });
  sim.schedule_after(30_ms, [&] { after = true; });
  sim.run();
  EXPECT_TRUE(after);
  EXPECT_EQ(completed, 0);
  EXPECT_TRUE(sim.empty());
}

}  // namespace
}  // namespace prophet::net
