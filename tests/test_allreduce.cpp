#include <gtest/gtest.h>

#include "allreduce/cluster.hpp"
#include "allreduce/coordinator.hpp"
#include "allreduce/ring.hpp"
#include "ps/strategy.hpp"

namespace prophet::ar {
namespace {

using namespace prophet::literals;

net::TcpCostModel plain_cost() {
  net::TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return net::TcpCostModel{params};
}

struct RingFixture {
  sim::Simulator sim;
  net::FlowNetwork net;
  std::vector<net::NodeId> nodes;

  explicit RingFixture(std::size_t workers, Bandwidth bw = Bandwidth::gbps(1),
                       net::TcpCostModel cost = plain_cost())
      : net{sim, cost} {
    for (std::size_t w = 0; w < workers; ++w) {
      nodes.push_back(net.add_node("w" + std::to_string(w), bw, bw));
    }
  }
};

TEST(RingAllReduce, RoundCountIsTwoWMinusOne) {
  RingFixture f{4};
  RingAllReduce ring{f.sim, f.net, f.nodes};
  EXPECT_EQ(ring.total_rounds(), 6u);
}

TEST(RingAllReduce, BandwidthOptimalTiming) {
  // 4 workers, 1 Gbps (125 MB/s), 100 MB payload: each round moves 25 MB
  // per link concurrently (0.2 s), 6 rounds -> 1.2 s total. That is the
  // classic 2 * S/B * (W-1)/W ring bound.
  RingFixture f{4};
  RingAllReduce ring{f.sim, f.net, f.nodes};
  double done_s = 0.0;
  ring.run(Bytes::of(100'000'000), [&] { done_s = f.sim.now().to_seconds(); });
  f.sim.run();
  EXPECT_NEAR(done_s, 1.2, 1e-6);
  EXPECT_FALSE(ring.busy());
}

TEST(RingAllReduce, PerRoundSetupCostMakesSmallCollectivesLatencyBound) {
  net::TcpCostParams params;
  params.per_task_overhead = 1_ms;
  params.slow_start = false;
  RingFixture f{4, Bandwidth::gbps(10), net::TcpCostModel{params}};
  RingAllReduce ring{f.sim, f.net, f.nodes};
  double done_ms = 0.0;
  ring.run(Bytes::kib(4), [&] { done_ms = f.sim.now().to_millis(); });
  f.sim.run();
  // 6 rounds x ~1 ms setup dominate the microscopic serialization.
  EXPECT_GT(done_ms, 6.0);
  EXPECT_LT(done_ms, 7.0);
}

TEST(RingAllReduce, SequentialCollectives) {
  RingFixture f{2};
  RingAllReduce ring{f.sim, f.net, f.nodes};
  int completed = 0;
  std::function<void()> chain = [&] {
    if (++completed < 3) ring.run(Bytes::mib(1), chain);
  };
  ring.run(Bytes::mib(1), chain);
  f.sim.run();
  EXPECT_EQ(completed, 3);
}

TEST(RingAllReduceDeath, ConcurrentCollectivesAbort) {
  RingFixture f{2};
  RingAllReduce ring{f.sim, f.net, f.nodes};
  ring.run(Bytes::mib(1), [] {});
  EXPECT_DEATH(ring.run(Bytes::mib(1), [] {}), "one collective at a time");
}

TEST(Coordinator, WaitsForEveryWorkerBeforeScheduling) {
  RingFixture f{3};
  const auto model = dnn::toy_cnn();
  std::vector<std::pair<std::size_t, std::size_t>> reduced;
  Coordinator coordinator{
      f.sim, f.net, f.nodes, model,
      ps::make_scheduler(ps::StrategyConfig::fifo(), sched::TaskKind::kPush,
                         model.tensor_count(),
                         [] { return Bandwidth::gbps(1); }, plain_cost()),
      [&](std::size_t w, std::size_t k) { reduced.emplace_back(w, k); }};
  coordinator.on_iteration_start(0, f.sim.now());
  coordinator.on_gradient_ready(0, 5);
  coordinator.on_gradient_ready(1, 5);
  f.sim.run();
  EXPECT_TRUE(reduced.empty());  // worker 2 still missing
  coordinator.on_gradient_ready(2, 5);
  f.sim.run();
  ASSERT_EQ(reduced.size(), 3u);  // all workers notified once reduced
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(reduced[w].first, w);
    EXPECT_EQ(reduced[w].second, 5u);
  }
  EXPECT_EQ(coordinator.reductions_completed(5), 1u);
  EXPECT_EQ(coordinator.reductions_completed(4), 0u);
}

TEST(Coordinator, PartialFusionCompletesKeysOnLastSlice) {
  // A scheduler that partitions tensors (P3) must not mark a key reduced
  // until every slice's collective completed.
  RingFixture f{2};
  const auto model = dnn::toy_cnn();
  int notified = 0;
  Coordinator coordinator{
      f.sim, f.net, f.nodes, model,
      ps::make_scheduler(ps::StrategyConfig::p3(Bytes::of(64)),
                         sched::TaskKind::kPush, model.tensor_count(),
                         [] { return Bandwidth::gbps(1); }, plain_cost()),
      [&](std::size_t, std::size_t) { ++notified; }};
  coordinator.on_iteration_start(0, f.sim.now());
  // toy_cnn tensor 0: conv1 3x3x3x16 weights = 1728 bytes -> 27 slices.
  coordinator.on_gradient_ready(0, 0);
  coordinator.on_gradient_ready(1, 0);
  f.sim.run();
  EXPECT_EQ(notified, 2);  // exactly one completion per worker
  EXPECT_EQ(coordinator.reductions_completed(0), 1u);
}

ps::ClusterConfig ar_config(ps::StrategyConfig strategy, double gbps = 2.0) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 3;
  cfg.batch = 32;
  cfg.iterations = 14;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(gbps), Bandwidth::gbps(10));
  cfg.strategy = std::move(strategy);
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

TEST(AllReduceCluster, CompletesForEveryStrategy) {
  for (auto strategy :
       {ps::StrategyConfig::fifo(), ps::StrategyConfig::p3(Bytes::kib(64)),
        ps::StrategyConfig::tictac(), ps::StrategyConfig::mg_wfbp(Bytes::kib(256)),
        ps::StrategyConfig::bytescheduler(Bytes::kib(256)),
        ps::StrategyConfig::prophet()}) {
    if (strategy.kind == ps::StrategyConfig::Kind::kByteScheduler) {
      strategy.bytescheduler_config.partition_bytes = Bytes::kib(64);
    }
    const auto result = run_allreduce(ar_config(strategy), 6);
    for (const auto& w : result.workers) {
      EXPECT_EQ(w.iterations_completed, 14u) << strategy.name();
      EXPECT_GT(w.rate_samples_per_sec, 0.0) << strategy.name();
    }
  }
}

TEST(AllReduceCluster, Deterministic) {
  const auto a = run_allreduce(ar_config(ps::StrategyConfig::prophet()), 6);
  const auto b = run_allreduce(ar_config(ps::StrategyConfig::prophet()), 6);
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
}

TEST(AllReduceCluster, FusionBeatsPerTensorCollectives) {
  // The defining effect of the ring architecture: per-tensor collectives
  // (FIFO/TicTac) pay 2(W-1) setups per tensor; fused strategies win big.
  const double fifo = run_allreduce(ar_config(ps::StrategyConfig::fifo()), 6).mean_rate();
  const double prophet =
      run_allreduce(ar_config(ps::StrategyConfig::prophet()), 6).mean_rate();
  EXPECT_GT(prophet, 1.2 * fifo);
}

TEST(AllReduceCluster, BspLockstepAcrossWorkers) {
  const auto result = run_allreduce(ar_config(ps::StrategyConfig::prophet()), 6);
  for (const auto& w : result.workers) {
    EXPECT_NEAR(w.rate_samples_per_sec, result.workers[0].rate_samples_per_sec,
                0.02 * result.workers[0].rate_samples_per_sec);
  }
}

TEST(AllReduceCluster, ReportsTheSharedResultType) {
  // The ring fills the PS result type: ids, compute series and the default
  // window (past Prophet's profiling phase), with no BSP audit.
  const ps::ClusterResult result =
      run_allreduce(ar_config(ps::StrategyConfig::prophet()));
  EXPECT_EQ(result.measure_first, ps::default_measure_first(
                                      ar_config(ps::StrategyConfig::prophet())));
  EXPECT_EQ(result.measure_last, 14u);
  EXPECT_GT(result.events_fired, 0u);
  EXPECT_EQ(result.audit_checks, 0u);
  ASSERT_EQ(result.workers.size(), 3u);
  for (std::size_t w = 0; w < result.workers.size(); ++w) {
    EXPECT_EQ(result.workers[w].id, w);
    EXPECT_EQ(result.workers[w].iterations_completed, 14u);
    EXPECT_GE(result.workers[w].training.iterations_started(), 14u);
    EXPECT_FALSE(result.workers[w].gpu_intervals.empty());
  }
}

TEST(AllReduceClusterDeathTest, RejectsConfigsTheRingCannotRun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    auto cfg = ar_config(ps::StrategyConfig::fifo());
    cfg.batch = 0;
    EXPECT_DEATH(run_allreduce(cfg), "batch must be > 0");
  }
  {
    auto cfg = ar_config(ps::StrategyConfig::fifo());
    cfg.num_workers = 1;
    EXPECT_DEATH(run_allreduce(cfg), "at least 2 workers");
  }
  {
    // A plan the ring would silently ignore is refused instead.
    auto cfg = ar_config(ps::StrategyConfig::fifo());
    cfg.dynamics.straggler(Duration::millis(100), 0, 2.0);
    EXPECT_DEATH(run_allreduce(cfg), "dynamics");
  }
  {
    // The ring gates every layer on a completed reduction: it cannot run ASP.
    auto cfg = ar_config(ps::StrategyConfig::fifo());
    cfg.sync = ps::SyncMode::kAsp;
    EXPECT_DEATH(run_allreduce(cfg), "BSP by construction");
  }
}

}  // namespace
}  // namespace prophet::ar
