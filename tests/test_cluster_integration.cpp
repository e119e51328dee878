// End-to-end integration tests: full training simulations through the PS
// engine with every strategy, checking conservation laws, determinism, and
// the engine-level invariants the modules promise each other.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {
namespace {

using namespace prophet::literals;

ClusterConfig small_config(StrategyConfig strategy) {
  ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 12;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

class EveryStrategy : public ::testing::TestWithParam<StrategyConfig::Kind> {
 protected:
  StrategyConfig strategy() const {
    switch (GetParam()) {
      case StrategyConfig::Kind::kFifo: return StrategyConfig::fifo();
      case StrategyConfig::Kind::kP3: return StrategyConfig::p3(Bytes::kib(64));
      case StrategyConfig::Kind::kByteScheduler: {
        StrategyConfig s = StrategyConfig::bytescheduler(Bytes::kib(256));
        s.bytescheduler_config.partition_bytes = Bytes::kib(64);
        return s;
      }
      case StrategyConfig::Kind::kTicTac: return StrategyConfig::tictac();
      case StrategyConfig::Kind::kMgWfbp:
        return StrategyConfig::mg_wfbp(Bytes::kib(256));
      case StrategyConfig::Kind::kProphet: return StrategyConfig::prophet();
    }
    return StrategyConfig::fifo();
  }
};

TEST_P(EveryStrategy, CompletesAllIterations) {
  const auto result = run_cluster(small_config(strategy()), 6);
  ASSERT_EQ(result.workers.size(), 2u);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);
    EXPECT_GT(w.rate_samples_per_sec, 0.0);
    EXPECT_GT(w.gpu_utilization, 0.05);
    EXPECT_LE(w.gpu_utilization, 1.0);
  }
}

TEST_P(EveryStrategy, EveryGradientPushedAndPulledEveryIteration) {
  const auto result = run_cluster(small_config(strategy()), 6);
  const std::size_t n = dnn::toy_cnn().tensor_count();
  for (const auto& w : result.workers) {
    // Count full-tensor bytes moved per direction in iterations [2, 10).
    std::vector<std::int64_t> pushed(n, 0);
    std::vector<std::int64_t> pulled(n, 0);
    for (const auto& rec : w.transfers.records()) {
      if (rec.iteration < 2 || rec.iteration >= 10) continue;
      auto& bucket = rec.kind == sched::TaskKind::kPush ? pushed : pulled;
      bucket[rec.grad] += rec.bytes.count();
    }
    const auto model = dnn::toy_cnn();
    for (std::size_t g = 0; g < n; ++g) {
      EXPECT_EQ(pushed[g], model.tensor(g).bytes.count() * 8)
          << "grad " << g << " pushes";
      EXPECT_EQ(pulled[g], model.tensor(g).bytes.count() * 8)
          << "grad " << g << " pulls";
    }
  }
}

TEST_P(EveryStrategy, DeterministicAcrossRuns) {
  const auto a = run_cluster(small_config(strategy()), 6);
  const auto b = run_cluster(small_config(strategy()), 6);
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
}

TEST_P(EveryStrategy, SeedChangesJitterButNotScale) {
  auto cfg = small_config(strategy());
  const auto a = run_cluster(cfg, 6);
  cfg.seed = 1234;
  const auto b = run_cluster(cfg, 6);
  EXPECT_NE(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_NEAR(a.mean_rate(), b.mean_rate(), 0.2 * a.mean_rate());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, EveryStrategy,
    ::testing::Values(StrategyConfig::Kind::kFifo, StrategyConfig::Kind::kP3,
                      StrategyConfig::Kind::kTicTac, StrategyConfig::Kind::kMgWfbp,
                      StrategyConfig::Kind::kByteScheduler,
                      StrategyConfig::Kind::kProphet),
    [](const auto& param_info) {
      switch (param_info.param) {
        case StrategyConfig::Kind::kFifo: return "fifo";
        case StrategyConfig::Kind::kP3: return "p3";
        case StrategyConfig::Kind::kTicTac: return "tictac";
        case StrategyConfig::Kind::kMgWfbp: return "mg_wfbp";
        case StrategyConfig::Kind::kByteScheduler: return "bytescheduler";
        case StrategyConfig::Kind::kProphet: return "prophet";
      }
      return "unknown";
    });

TEST(ClusterIntegration, ProphetActivatesAfterProfiling) {
  auto cfg = small_config(StrategyConfig::prophet());
  cfg.strategy.prophet_config.profile_iterations = 4;
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) {
    ASSERT_TRUE(w.prophet_activated_at.has_value());
    EXPECT_EQ(*w.prophet_activated_at, 4u);
  }
}

TEST(ClusterIntegration, NonProphetNeverActivates) {
  const auto result = run_cluster(small_config(StrategyConfig::fifo()), 6);
  for (const auto& w : result.workers) {
    EXPECT_FALSE(w.prophet_activated_at.has_value());
  }
}

TEST(ClusterIntegration, HigherBandwidthNeverHurts) {
  for (auto kind :
       {StrategyConfig::Kind::kFifo, StrategyConfig::Kind::kProphet}) {
    auto strategy = kind == StrategyConfig::Kind::kFifo
                        ? StrategyConfig::fifo()
                        : StrategyConfig::prophet();
    auto slow = small_config(strategy);
    slow.topology =
        net::TopologySpec::star(Bandwidth::mbps(200), Bandwidth::mbps(200));
    auto fast = small_config(strategy);
    fast.topology =
        net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(10));
    EXPECT_GT(run_cluster(fast, 6).mean_rate() * 1.02,
              run_cluster(slow, 6).mean_rate());
  }
}

TEST(ClusterIntegration, HeterogeneousWorkerSlowsEveryone) {
  // BSP: the 100 Mbps straggler gates the whole cluster (Sec. 5.3). The
  // fabric is an explicit star, and the override must still apply to it.
  auto uniform = small_config(StrategyConfig::prophet());
  auto hetero = uniform;
  hetero.worker_bandwidth_override = {Bandwidth::mbps(100)};
  ASSERT_EQ(hetero.topology.kind, net::TopologySpec::Kind::kStar);
  const auto fast = run_cluster(uniform, 6);
  const auto slow = run_cluster(hetero, 6);
  EXPECT_LT(slow.mean_rate(), fast.mean_rate());
  // BSP lockstep: both workers in the hetero cluster run at ~the same rate.
  EXPECT_NEAR(slow.workers[0].rate_samples_per_sec,
              slow.workers[1].rate_samples_per_sec,
              0.05 * slow.workers[0].rate_samples_per_sec);
}

TEST(ClusterIntegration, AspModeRunsAndDecouplesWorkers) {
  auto cfg = small_config(StrategyConfig::prophet());
  cfg.sync = SyncMode::kAsp;
  cfg.worker_bandwidth_override = {Bandwidth::mbps(100)};
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);
  }
  // ASP: the fast worker is NOT gated by the straggler.
  EXPECT_GT(result.workers[1].rate_samples_per_sec,
            1.3 * result.workers[0].rate_samples_per_sec);
}

TEST(ClusterIntegration, TransferWaitTimesNonNegative) {
  const auto result = run_cluster(small_config(StrategyConfig::prophet()), 6);
  for (const auto& w : result.workers) {
    for (const auto& rec : w.transfers.records()) {
      EXPECT_GE(rec.wait().count_nanos(), 0) << rec.grad;
      EXPECT_GT(rec.transfer().count_nanos(), 0);
    }
  }
}

TEST(ClusterIntegration, ThroughputSeriesAccountsAllTrafficOfWorker) {
  const auto cfg = small_config(StrategyConfig::fifo());
  const auto result = run_cluster(cfg, 6);
  const auto model = dnn::toy_cnn();
  const double per_iter = static_cast<double>(model.total_bytes().count());
  for (const auto& w : result.workers) {
    double tx_total = 0.0;
    for (std::size_t b = 0; b < w.tx_series.bin_count(); ++b) {
      tx_total += w.tx_series.bin_amount(b);
    }
    // 12 iterations of pushes (plus nothing else on the uplink).
    EXPECT_NEAR(tx_total, per_iter * 12, per_iter * 0.01);
  }
}

ClusterConfig star_config(std::size_t workers) {
  ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = workers;
  cfg.batch = 32;
  cfg.iterations = 3;
  cfg.seed = 42;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(10));
  cfg.strategy = StrategyConfig::fifo();
  return cfg;
}

// Series store only the bins written, so the horizon bounds where metrics may
// land, not what a run costs or computes: a 10^7 s horizon (4e7 logical
// 250 ms bins per series) replays the default-horizon run exactly.
TEST(ClusterIntegration, MetricsHorizonDoesNotChangeTheRun) {
  ClusterConfig cfg = star_config(64);
  const auto base = run_cluster(cfg, 1);
  cfg.metrics_horizon = Duration::seconds(10'000'000);
  const auto wide = run_cluster(cfg, 1);

  EXPECT_EQ(base.events_fired, wide.events_fired);
  EXPECT_EQ(base.simulated_time, wide.simulated_time);
  EXPECT_EQ(base.link_bytes, wide.link_bytes);
  ASSERT_EQ(base.workers.size(), wide.workers.size());
  const std::size_t base_bins = base.workers.front().tx_series.bin_count();
  EXPECT_EQ(wide.workers.front().tx_series.bin_count(), 40'000'000u);
  for (std::size_t w = 0; w < base.workers.size(); ++w) {
    const WorkerResult& a = base.workers[w];
    const WorkerResult& b = wide.workers[w];
    EXPECT_EQ(a.rate_samples_per_sec, b.rate_samples_per_sec) << w;
    EXPECT_EQ(a.gpu_utilization, b.gpu_utilization) << w;
    // Results stay populated by default.
    EXPECT_FALSE(b.transfers.records().empty()) << w;
    EXPECT_FALSE(b.gpu_intervals.empty()) << w;
    double tx_a = 0.0, tx_b = 0.0, rx_a = 0.0, rx_b = 0.0;
    for (std::size_t i = 0; i < base_bins; ++i) {
      tx_a += a.tx_series.bin_amount(i);
      tx_b += b.tx_series.bin_amount(i);
      rx_a += a.rx_series.bin_amount(i);
      rx_b += b.rx_series.bin_amount(i);
    }
    EXPECT_GT(tx_a, 0.0) << w;
    EXPECT_GT(rx_a, 0.0) << w;
    EXPECT_EQ(tx_a, tx_b) << w;
    EXPECT_EQ(rx_a, rx_b) << w;
    EXPECT_EQ(b.tx_series.bin_amount(b.tx_series.bin_count() - 1), 0.0) << w;
  }
}

TEST(ClusterIntegrationDeathTest, SecondCollectAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ClusterConfig cfg = star_config(4);
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{cfg.tcp}, cfg.rate_rebalance};
  net::BuiltTopology topology{network, cfg.topology};
  std::vector<std::unique_ptr<JobRuntime>> jobs;
  jobs.push_back(std::make_unique<JobRuntime>(sim, network, topology, cfg));
  run_jobs(sim, jobs, TimePoint::origin() + cfg.metrics_horizon);
  const ClusterResult result = jobs.front()->collect(1, sim.events_fired());
  ASSERT_EQ(result.workers.size(), 4u);
  EXPECT_FALSE(result.workers.front().transfers.records().empty());
  // The first call moved every series and log into `result`.
  EXPECT_DEATH((void)jobs.front()->collect(1, sim.events_fired()),
               "results were already handed over");
}

}  // namespace
}  // namespace prophet::ps
