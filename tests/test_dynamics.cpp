// Network-dynamics & fault-injection subsystem: plan construction and
// validation, flow-network outage semantics, monitor tracking of scripted
// bandwidth changes, full-cluster determinism under dynamics, and the
// strategy-name registry the CLI flags are built on.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "net/dynamics.hpp"
#include "net/flow_network.hpp"
#include "net/monitor.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

net::TcpCostModel plain_model() {
  net::TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return net::TcpCostModel{params};
}

// --- flow-network outage semantics ----------------------------------------

TEST(Outage, FlowStallsAndResumesAcrossLinkDowntime) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, plain_model()};
  const net::NodeId a = network.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const net::NodeId b = network.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  // 125 MB at 1 Gbps = 1 s of drain time; a [0.25 s, 0.75 s) outage freezes
  // the transfer without losing progress, so it finishes at 1.5 s.
  bool done = false;
  network.start_flow(a, b, Bytes::of(125'000'000), [&](net::FlowId) {
    done = true;
    EXPECT_NEAR(sim.now().to_seconds(), 1.5, 1e-6);
  });
  sim.schedule_at(TimePoint::origin() + 250_ms,
                  [&] { network.set_link_up(a, false); });
  sim.schedule_at(TimePoint::origin() + 750_ms,
                  [&] { network.set_link_up(a, true); });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Outage, DownLinkStallsBothDirections) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, plain_model()};
  const net::NodeId a = network.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const net::NodeId b = network.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  EXPECT_TRUE(network.link_up(b));
  bool done = false;
  // Flow towards the downed receiver: stalls just the same.
  network.start_flow(a, b, Bytes::of(125'000'000), [&](net::FlowId) {
    done = true;
    EXPECT_NEAR(sim.now().to_seconds(), 1.2, 1e-6);
  });
  sim.schedule_at(TimePoint::origin() + 500_ms,
                  [&] { network.set_link_up(b, false); });
  sim.schedule_at(TimePoint::origin() + 700_ms,
                  [&] { network.set_link_up(b, true); });
  sim.run();
  EXPECT_TRUE(done);
}

// --- monitor tracks scripted bandwidth changes ----------------------------

TEST(Dynamics, MonitorTracksScriptedBandwidthStep) {
  sim::Simulator sim;
  net::FlowNetwork network{sim, plain_model()};
  const net::NodeId a = network.add_node("a", Bandwidth::gbps(1), Bandwidth::gbps(1));
  const net::NodeId b = network.add_node("b", Bandwidth::gbps(1), Bandwidth::gbps(1));
  net::BandwidthMonitorConfig cfg;
  cfg.sample_period = 1_s;
  net::BandwidthMonitor monitor{sim, network, a, net::Direction::kTx, cfg};
  // Saturating flow; the link halves at t = 4 s. The monitor's estimate must
  // converge towards the new 62.5 MB/s goodput after the step.
  network.start_flow(a, b, Bytes::of(1'000'000'000), [](net::FlowId) {});
  sim.schedule_at(TimePoint::origin() + 4_s, [&] {
    network.set_capacity(a, net::Direction::kTx, Bandwidth::gbps(0.5));
  });
  sim.run_until(TimePoint::origin() + 4_s);
  const double before = monitor.estimate().bytes_per_second();
  EXPECT_NEAR(before, 125e6, 5e6);
  sim.run_until(TimePoint::origin() + 12_s);
  const double after = monitor.estimate().bytes_per_second();
  EXPECT_LT(after, 95e6);
  EXPECT_GT(after, 55e6);
  monitor.stop();
}

// --- plan construction & validation ---------------------------------------

TEST(DynamicsPlan, FluctuationIsSeededAndBounded) {
  const auto horizon = Duration::seconds(10);
  const auto a = net::DynamicsPlan::fluctuation(7, 0.4, 2_s, horizon, 3);
  const auto b = net::DynamicsPlan::fluctuation(7, 0.4, 2_s, horizon, 3);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.events.size(), 5u * 3u);  // 5 periods x 3 workers
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at.count_nanos(), b.events[i].at.count_nanos());
    EXPECT_DOUBLE_EQ(a.events[i].factor, b.events[i].factor);
    EXPECT_GE(a.events[i].factor, 0.6);
    EXPECT_LE(a.events[i].factor, 1.0);
  }
  const auto c = net::DynamicsPlan::fluctuation(8, 0.4, 2_s, horizon, 3);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    any_differs = any_differs || a.events[i].factor != c.events[i].factor;
  }
  EXPECT_TRUE(any_differs);
  a.validate(3);
}

TEST(DynamicsPlan, SpecParsingRoundTrips) {
  std::string error;
  const auto fluct = net::DynamicsPlan::from_spec("fluctuate:0.3", 1, 4_s, 2, &error);
  ASSERT_TRUE(fluct.has_value()) << error;
  EXPECT_EQ(fluct->events.size(), 2u * 2u);  // periods at 2 s and 4 s, 2 workers

  const auto step = net::DynamicsPlan::from_spec("step:1.5:0.5:1", 1, 4_s, 2, &error);
  ASSERT_TRUE(step.has_value()) << error;
  ASSERT_EQ(step->events.size(), 1u);
  EXPECT_EQ(step->events[0].at.count_nanos(), Duration::from_seconds(1.5).count_nanos());
  EXPECT_DOUBLE_EQ(step->events[0].factor, 0.5);
  ASSERT_TRUE(step->events[0].worker.has_value());
  EXPECT_EQ(*step->events[0].worker, 1u);

  EXPECT_TRUE(net::DynamicsPlan::from_spec("none", 1, 4_s, 2, &error)->empty());
  EXPECT_FALSE(net::DynamicsPlan::from_spec("bogus:1", 1, 4_s, 2, &error).has_value());
  EXPECT_FALSE(error.empty());

  net::DynamicsPlan plan;
  EXPECT_TRUE(plan.add_outage_spec("2:0.5:1", &error));
  EXPECT_TRUE(plan.add_straggler_spec("0:1.5:3", &error));
  EXPECT_TRUE(plan.add_ps_degrade_spec("2.0:4", &error));
  EXPECT_FALSE(plan.add_outage_spec("nope", &error));
  plan.sort();
  plan.validate(2);
  EXPECT_EQ(plan.events.size(), 4u);
}

TEST(DynamicsPlan, CrashSpecParsingAndErrorPaths) {
  std::string error;
  net::DynamicsPlan plan;
  EXPECT_TRUE(plan.add_worker_crash_spec("1.5:0.5:1", &error));
  EXPECT_TRUE(plan.add_ps_crash_spec("3:0.25", &error));
  EXPECT_TRUE(plan.add_loss_spec("0.05:2", &error));
  plan.sort();
  plan.validate(2);
  // crash + recover pairs plus the loss event.
  EXPECT_EQ(plan.events.size(), 5u);
  EXPECT_TRUE(plan.has_worker_crash());
  EXPECT_TRUE(plan.has_ps_crash());
  EXPECT_TRUE(plan.has_loss());

  net::DynamicsPlan bad;
  // Missing worker index, zero downtime, negative time, junk.
  EXPECT_FALSE(bad.add_worker_crash_spec("1.5:0.5", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(bad.add_worker_crash_spec("1.5:0:1", &error));
  EXPECT_FALSE(bad.add_worker_crash_spec("-1:0.5:1", &error));
  EXPECT_FALSE(bad.add_ps_crash_spec("3", &error));
  EXPECT_FALSE(bad.add_ps_crash_spec("3:0", &error));
  EXPECT_FALSE(bad.add_loss_spec("1.0", &error));  // rate must stay below 1
  EXPECT_FALSE(bad.add_loss_spec("-0.1", &error));
  EXPECT_FALSE(bad.add_loss_spec("0.1:-2", &error));
  EXPECT_TRUE(bad.empty());
}

TEST(DynamicsPlan, SpecParsersRejectNonFiniteAndOutOfRangeNumbers) {
  // Each spec parser reports its own error instead of handing a value the
  // simulator cannot represent to Duration::from_seconds or the event queue.
  std::string error;
  net::DynamicsPlan bad;
  const auto rejects = [&](bool accepted, const char* expected) {
    EXPECT_FALSE(accepted);
    EXPECT_NE(error.find(expected), std::string::npos) << error;
    error.clear();
  };
  rejects(bad.add_ps_degrade_spec("inf", &error), "--ps-degrade wants");
  rejects(bad.add_ps_degrade_spec("nan", &error), "--ps-degrade wants");
  rejects(bad.add_ps_degrade_spec("2:1e300", &error), "--ps-degrade wants");
  rejects(bad.add_outage_spec("1e300:1", &error), "--outage wants");
  rejects(bad.add_outage_spec("1:inf", &error), "--outage wants");
  rejects(bad.add_straggler_spec("0:nan", &error), "--straggler wants");
  rejects(bad.add_straggler_spec("0:2:-inf", &error), "--straggler wants");
  rejects(bad.add_worker_crash_spec("1:1e300:0", &error), "--worker-crash");
  rejects(bad.add_loss_spec("nan", &error), "--loss");
  EXPECT_TRUE(bad.empty());

  rejects(net::DynamicsPlan::from_spec("step:inf:0.5", 1, 4_s, 2, &error).has_value(),
          "--dynamics step wants");
  rejects(net::DynamicsPlan::from_spec("fluctuate:nan", 1, 4_s, 2, &error).has_value(),
          "--dynamics fluctuate");
  rejects(net::DynamicsPlan::from_spec("fluctuate:0.2:1e300", 1, 4_s, 2, &error)
              .has_value(),
          "--dynamics fluctuate");
}

TEST(DynamicsPlan, TraceCsvRoundTripsFaultEvents) {
  const std::string path = ::testing::TempDir() + "/fault_trace.csv";
  {
    std::ofstream out{path};
    out << "time_s,event,target,value\n"
        << "# crash worker 1, then the PS\n"
        << "0.5,worker_crash,1,0\n"
        << "0.7,worker_recover,1,0\n"
        << "1.0,loss_rate,*,0.02\n"
        << "2.0,ps_crash,ps,0\n"
        << "2.5,ps_recover,ps,0\n";
  }
  std::string error;
  const auto plan = net::DynamicsPlan::from_trace_csv(path, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 5u);
  plan->validate(2);
  EXPECT_EQ(plan->events[0].type, net::DynamicsEvent::Type::kWorkerCrash);
  ASSERT_TRUE(plan->events[0].worker.has_value());
  EXPECT_EQ(*plan->events[0].worker, 1u);
  EXPECT_EQ(plan->events[2].type, net::DynamicsEvent::Type::kLossRate);
  EXPECT_DOUBLE_EQ(plan->events[2].factor, 0.02);
  EXPECT_TRUE(plan->events[3].target_ps);
}

TEST(DynamicsPlan, TraceCsvErrorPaths) {
  std::string error;
  EXPECT_FALSE(
      net::DynamicsPlan::from_trace_csv("/no/such/trace.csv", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/bad_trace.csv";
  auto write_and_parse = [&](const std::string& row) {
    std::ofstream out{path};
    out << "time_s,event,target,value\n" << row << "\n";
    out.close();
    error.clear();
    return net::DynamicsPlan::from_trace_csv(path, &error);
  };
  EXPECT_FALSE(write_and_parse("0.5,worker_crash,1").has_value());  // 3 fields
  EXPECT_NE(error.find("4 fields"), std::string::npos);
  EXPECT_FALSE(write_and_parse("-1,worker_crash,1,0").has_value());
  EXPECT_NE(error.find("bad time"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,melted,1,0").has_value());
  EXPECT_NE(error.find("unknown event"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,loss_rate,*,oops").has_value());
  EXPECT_NE(error.find("bad value"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,worker_crash,q,0").has_value());
  EXPECT_NE(error.find("bad target"), std::string::npos);
  EXPECT_FALSE(write_and_parse("1e300,worker_crash,1,0").has_value());
  EXPECT_NE(error.find("bad time"), std::string::npos);
  EXPECT_FALSE(write_and_parse("nan,worker_crash,1,0").has_value());
  EXPECT_NE(error.find("bad time"), std::string::npos);
  EXPECT_FALSE(write_and_parse("0.5,loss_rate,*,inf").has_value());
  EXPECT_NE(error.find("bad value"), std::string::npos);
}

TEST(DynamicsPlanDeathTest, ValidateRejectsMalformedFaultPlans) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    // Crashing a worker that is already down.
    net::DynamicsPlan plan;
    plan.worker_crash(1_s, 2_s, 0).worker_crash(1500_ms, 2_s, 0);
    plan.sort();
    EXPECT_DEATH(plan.validate(2), "already down");
  }
  {
    // Recover without a crash.
    net::DynamicsPlan plan;
    plan.worker_crash(1_s, 1_s, 0);
    plan.events.erase(plan.events.begin());  // keep only the recover
    EXPECT_DEATH(plan.validate(2), "matching");
  }
  {
    // Crash whose recover never comes.
    net::DynamicsPlan plan;
    plan.ps_crash(1_s, 1_s);
    plan.events.pop_back();
    EXPECT_DEATH(plan.validate(2), "without a matching recover");
  }
  {
    // A cluster-wide worker crash (no index) is not recoverable.
    net::DynamicsPlan plan;
    plan.worker_crash(1_s, 1_s, 0);
    plan.events[0].worker.reset();
    plan.events[1].worker.reset();
    EXPECT_DEATH(plan.validate(2), "concrete");
  }
  {
    // Loss probability of 1 can never deliver.
    net::DynamicsPlan plan;
    plan.loss_rate(1_s, 1.0);
    EXPECT_DEATH(plan.validate(2), "loss_rate");
  }
}

TEST(DynamicsPlanDeathTest, ValidateRejectsMalformedPlans) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    net::DynamicsPlan plan;
    plan.straggler(1_s, 5, 1.5);
    EXPECT_DEATH(plan.validate(2), "worker index");
  }
  {
    net::DynamicsPlan plan;
    plan.bandwidth_scale(2_s, 0, 0.5).bandwidth_scale(1_s, 0, 2.0);
    EXPECT_DEATH(plan.validate(2), "time-sorted");
  }
  {
    net::DynamicsPlan plan;
    plan.bandwidth_scale(1_s, 0, -0.5);
    EXPECT_DEATH(plan.validate(2), "positive");
  }
  {
    net::DynamicsPlan plan;
    plan.outage(1_s, 1_s, 0);
    plan.events.pop_back();  // strip the matching outage_end
    EXPECT_DEATH(plan.validate(2), "outage");
  }
}

TEST(ClusterConfigDeathTest, ValidateRejectsBadConfigs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    ps::ClusterConfig cfg;
    cfg.num_workers = 0;
    EXPECT_DEATH(cfg.validate(), "num_workers");
  }
  {
    ps::ClusterConfig cfg;
    cfg.worker_bandwidth = Bandwidth::zero();
    EXPECT_DEATH(cfg.validate(), "worker_bandwidth");
  }
  {
    ps::ClusterConfig cfg;
    cfg.worker_bandwidth_override.assign(cfg.num_workers + 1, Bandwidth::gbps(1));
    EXPECT_DEATH(cfg.validate(), "override");
  }
}

// --- strategy registry ----------------------------------------------------

TEST(StrategyRegistry, RoundTripsEveryKnownName) {
  for (const auto& name : ps::StrategyConfig::known_names()) {
    const auto strategy = ps::StrategyConfig::from_name(name);
    ASSERT_TRUE(strategy.has_value()) << name;
    const auto again = ps::StrategyConfig::from_name(strategy->name());
    ASSERT_TRUE(again.has_value()) << strategy->name();
    EXPECT_EQ(again->kind, strategy->kind) << name;
    EXPECT_FALSE(ps::StrategyConfig::display_label(name).empty());
  }
}

TEST(StrategyRegistry, AcceptsHistoricalAliasAndRejectsUnknown) {
  const auto fifo = ps::StrategyConfig::from_name("mxnet-fifo");
  ASSERT_TRUE(fifo.has_value());
  EXPECT_EQ(fifo->kind, ps::StrategyConfig::Kind::kFifo);
  EXPECT_EQ(fifo->name(), "mxnet-fifo");
  EXPECT_FALSE(ps::StrategyConfig::from_name("definitely-not-a-strategy").has_value());
}

TEST(StrategyRegistry, AutotuneSpellingSelectsAutotune) {
  const auto bs = ps::StrategyConfig::from_name("bytescheduler-autotune");
  ASSERT_TRUE(bs.has_value());
  EXPECT_EQ(bs->kind, ps::StrategyConfig::Kind::kByteScheduler);
  EXPECT_TRUE(bs->bytescheduler_config.autotune);
}

// --- full-cluster behavior under dynamics ---------------------------------

ps::ClusterConfig small_config(ps::StrategyConfig strategy) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = 12;
  cfg.worker_bandwidth = Bandwidth::gbps(1);
  cfg.ps_bandwidth = Bandwidth::gbps(1);
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

TEST(ClusterDynamics, SameSeedSamePlanIsBitDeterministic) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  cfg.dynamics = net::DynamicsPlan::fluctuation(11, 0.5, 100_ms,
                                                Duration::seconds(30), 2);
  const auto a = run_cluster(cfg, 6);
  const auto b = run_cluster(cfg, 6);
  EXPECT_EQ(a.simulated_time.count_nanos(), b.simulated_time.count_nanos());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_DOUBLE_EQ(a.mean_rate(), b.mean_rate());
}

TEST(ClusterDynamics, OutageSlowsTraining) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  const auto baseline = run_cluster(cfg, 6);
  // A 300 ms all-worker blackout early in the run: training stalls for its
  // duration and finishes correspondingly later.
  cfg.dynamics.outage(100_ms, 300_ms, std::nullopt);
  const auto faulted = run_cluster(cfg, 6);
  EXPECT_GE(faulted.simulated_time.count_nanos(),
            baseline.simulated_time.count_nanos() +
                Duration{250_ms}.count_nanos());
  for (const auto& w : faulted.workers) {
    EXPECT_EQ(w.iterations_completed, 12u);  // nothing was lost, only delayed
  }
}

TEST(ClusterDynamics, StragglerSlowsTheWholeBspCluster) {
  auto cfg = small_config(ps::StrategyConfig::bytescheduler());
  const auto baseline = run_cluster(cfg, 6);
  cfg.dynamics.straggler(Duration::zero(), 0, 2.0);
  const auto straggled = run_cluster(cfg, 6);
  // BSP: one 2x-slower worker drags every worker's rate down.
  EXPECT_LT(straggled.mean_rate(), 0.8 * baseline.mean_rate());
}

TEST(ClusterDynamics, BandwidthDriftTriggersProphetReplan) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  cfg.iterations = 24;
  cfg.monitor.sample_period = 20_ms;
  // Quarter every worker NIC after profiling has finished; the monitored
  // bandwidth drifts far past the 10% re-plan threshold.
  cfg.dynamics.bandwidth_scale(150_ms, std::nullopt, 0.25);
  const auto result = run_cluster(cfg, 6);
  std::size_t replans = 0;
  for (const auto& w : result.workers) replans += w.prophet_replans;
  EXPECT_GE(replans, 1u);
}

TEST(ClusterDynamics, StaticNetworkYieldsNoReplans) {
  auto cfg = small_config(ps::StrategyConfig::prophet());
  const auto result = run_cluster(cfg, 6);
  for (const auto& w : result.workers) EXPECT_EQ(w.prophet_replans, 0u);
}

}  // namespace
}  // namespace prophet
