// Crash/recovery subsystem: worker crashes (lost in-flight state, replayed
// iterations), PS checkpoint failover (global rollback), transport loss
// under the reliable channel, schedule repair across strategies, and the
// fault-plan rejections ClusterConfig::validate() must make.
//
// Every cluster run here executes under the always-on BSP auditor, so
// passing is a statement that no fault lost or double-counted a gradient.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "audit/bsp_auditor.hpp"
#include "metrics/transfer_log.hpp"
#include "net/dynamics.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

ps::ClusterConfig small_config(ps::StrategyConfig strategy) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 12;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(1));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

std::size_t fault_count(const ps::WorkerResult& worker, metrics::FaultKind kind) {
  std::size_t count = 0;
  for (const auto& fault : worker.transfers.faults()) {
    if (fault.kind == kind) ++count;
  }
  return count;
}

TEST(CrashRecovery, WorkerCrashReplaysAndFinishesEveryStrategy) {
  for (const auto& strategy :
       {ps::StrategyConfig::fifo(), ps::StrategyConfig::p3(),
        ps::StrategyConfig::bytescheduler(), ps::StrategyConfig::prophet()}) {
    auto cfg = small_config(strategy);
    const auto baseline = run_cluster(cfg, 1);
    // Early enough to land mid-training for every strategy (the fastest
    // finishes the 12 iterations in ~220 ms).
    cfg.dynamics.worker_crash(100_ms, 50_ms, 0);
    const auto faulted = run_cluster(cfg, 1);
    for (const auto& w : faulted.workers) {
      EXPECT_EQ(w.iterations_completed, 12u) << strategy.name();
    }
    // The crash cost at least its downtime plus the replayed work.
    EXPECT_GT(faulted.simulated_time.count_nanos(),
              baseline.simulated_time.count_nanos())
        << strategy.name();
    EXPECT_EQ(fault_count(faulted.workers[0], metrics::FaultKind::kWorkerCrash), 1u)
        << strategy.name();
    EXPECT_EQ(fault_count(faulted.workers[0], metrics::FaultKind::kWorkerRecover),
              1u)
        << strategy.name();
    EXPECT_GT(faulted.audit_checks, 0u) << strategy.name();
  }
}

TEST(CrashRecovery, WorkerCrashRunIsBitDeterministic) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  cfg.dynamics.worker_crash(100_ms, 50_ms, 1);
  const auto a = run_cluster(cfg, 1);
  const auto b = run_cluster(cfg, 1);
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
  for (std::size_t w = 0; w < a.workers.size(); ++w) {
    EXPECT_EQ(a.workers[w].transfers.faults().size(),
              b.workers[w].transfers.faults().size());
    EXPECT_EQ(a.workers[w].transfers.records().size(),
              b.workers[w].transfers.records().size());
  }
}

TEST(CrashRecovery, PsCrashRestoresCheckpointAndFinishes) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  const auto baseline = run_cluster(cfg, 1);
  cfg.checkpoint_period = 50_ms;
  cfg.dynamics.ps_crash(120_ms, 80_ms);
  const auto faulted = run_cluster(cfg, 1);
  for (const auto& w : faulted.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);
    // Every worker observed the crash and the failover rollback.
    EXPECT_EQ(fault_count(w, metrics::FaultKind::kPsCrash), 1u);
    EXPECT_EQ(fault_count(w, metrics::FaultKind::kPsFailover), 1u);
  }
  // Failover costs its downtime plus the rounds rolled back and redone.
  EXPECT_GT(faulted.simulated_time.count_nanos(),
            baseline.simulated_time.count_nanos() + Duration{80_ms}.count_nanos());
  EXPECT_GT(faulted.audit_checks, 0u);
}

TEST(CrashRecovery, ProphetRepairsItsPlanAfterACrash) {
  // Crash Prophet's worker well after profiling finished: recovery must not
  // restart profiling, it re-plans from the surviving profile.
  auto cfg = small_config(ps::StrategyConfig::prophet());
  cfg.iterations = 16;
  cfg.dynamics.worker_crash(150_ms, 60_ms, 0);
  const auto result = run_cluster(cfg, 1);
  EXPECT_EQ(result.workers[0].iterations_completed, 16u);
  ASSERT_TRUE(result.workers[0].prophet_activated_at.has_value());
  // The forced post-recovery re-plan is counted alongside drift re-plans.
  EXPECT_GE(result.workers[0].prophet_replans, 1u);
}

TEST(CrashRecovery, TransportLossRetriesAndStillConverges) {
  auto cfg = small_config(ps::StrategyConfig::p3());
  const auto baseline = run_cluster(cfg, 1);
  cfg.reliability.loss_rate = 0.05;
  cfg.reliability.retry_budget = 64;
  const auto lossy = run_cluster(cfg, 1);
  std::size_t retries = 0;
  std::size_t multi_attempt_records = 0;
  for (const auto& w : lossy.workers) {
    retries += fault_count(w, metrics::FaultKind::kTransportRetry);
    EXPECT_EQ(w.iterations_completed, 12u);
    for (const auto& rec : w.transfers.records()) {
      if (rec.attempts > 1) ++multi_attempt_records;
    }
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(multi_attempt_records, 0u);
  // Retries only cost time; they never lose bytes (the run still finishes
  // with every round accounted — enforced by the auditor).
  EXPECT_GT(lossy.simulated_time.count_nanos(),
            baseline.simulated_time.count_nanos());
}

TEST(CrashRecovery, DynamicsPlanTogglesLossMidRun) {
  auto cfg = small_config(ps::StrategyConfig::fifo());
  cfg.reliability.retry_budget = 64;
  cfg.dynamics.loss_rate(200_ms, 0.2);
  const auto result = run_cluster(cfg, 1);
  TimePoint first_retry = TimePoint::origin() + cfg.metrics_horizon;
  std::size_t retries = 0;
  for (const auto& w : result.workers) {
    for (const auto& fault : w.transfers.faults()) {
      if (fault.kind != metrics::FaultKind::kTransportRetry) continue;
      ++retries;
      first_retry = std::min(first_retry, fault.at);
    }
  }
  EXPECT_GT(retries, 0u);
  // Loss was off until the plan turned it on.
  EXPECT_GE(first_retry, TimePoint::origin() + Duration{200_ms});
}

TEST(CrashRecoveryDeathTest, ConfigRejectsIllFormedFaultPlans) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    // Loss with a zero retry budget hangs on the first drop.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.reliability.loss_rate = 0.1;
    cfg.reliability.retry_budget = 0;
    EXPECT_DEATH(cfg.validate(), "retry");
  }
  {
    // Same rejection when the loss arrives via the dynamics plan.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.reliability.retry_budget = 0;
    cfg.dynamics.loss_rate(1_s, 0.1);
    EXPECT_DEATH(cfg.validate(), "retry");
  }
  {
    // Crash faults need a BSP round to roll back to.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.sync = ps::SyncMode::kAsp;
    cfg.dynamics.worker_crash(1_s, 100_ms, 0);
    EXPECT_DEATH(cfg.validate(), "BSP");
  }
  {
    // PS failover needs a checkpoint to restore.
    auto cfg = small_config(ps::StrategyConfig::fifo());
    cfg.checkpoint_period = Duration::zero();
    cfg.dynamics.ps_crash(1_s, 100_ms);
    EXPECT_DEATH(cfg.validate(), "checkpoint_period");
  }
}

TEST(BspAuditorDeathTest, CatchesProtocolViolations) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Bytes> keys{Bytes::of(1000)};
  {
    // A duplicate gradient push overfills the round.
    audit::BspAuditor auditor{1, keys};
    auditor.on_push_delivered(0, 0, Bytes::of(1000), TimePoint::origin());
    EXPECT_DEATH(
        auditor.on_push_delivered(0, 0, Bytes::of(1000), TimePoint::origin()),
        "BSP audit violation");
  }
  {
    // A round completing without every worker's contribution.
    audit::BspAuditor auditor{2, keys};
    auditor.on_push_delivered(0, 0, Bytes::of(1000), TimePoint::origin());
    EXPECT_DEATH(auditor.on_round_complete(0, TimePoint::origin()),
                 "BSP audit violation");
  }
  {
    // Backward starting before the barrier's pulls are in.
    audit::BspAuditor auditor{1, keys};
    auditor.on_iteration_start(0, 0, TimePoint::origin());
    auditor.on_backward_start(0, 0, TimePoint::origin());
    auditor.on_push_delivered(0, 0, Bytes::of(1000), TimePoint::origin());
    auditor.on_round_complete(0, TimePoint::origin());
    auditor.on_iteration_start(0, 1, TimePoint::origin());
    EXPECT_DEATH(auditor.on_backward_start(0, 1, TimePoint::origin()),
                 "BSP audit violation");
  }
  {
    // Ending the run with a worker short of the target iteration.
    audit::BspAuditor auditor{1, keys};
    auditor.on_iteration_start(0, 0, TimePoint::origin());
    EXPECT_DEATH(auditor.finish(5), "BSP audit violation");
  }
}

}  // namespace
}  // namespace prophet
