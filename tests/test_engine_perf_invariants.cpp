// Golden determinism suite for the engine hot-path optimizations.
//
// The event pool, the incremental local-search evaluator, the flat-vector
// BlockPlanner, and the slab-based FlowNetwork are all pure performance work:
// simulation *results* must not move. The scenarios live in
// golden_scenarios.hpp; tools/golden_capture (a build target) prints their
// current outputs, and the constants below pin them bit for bit —
// schedules, WaitTimeBreakdowns, fired-event counts, and full cluster runs.
//
// Capture history. The planner, refine and simulator constants come from the
// pre-optimization engine (commit 92aa530). FlowNetwork's FlowId encoding
// ({generation, slot}) and same-nanosecond completion order (admission
// order) changed the flow-scenario hash once. Exact fixed-point byte
// accounting re-captured the flow and cluster goldens once more: completion
// instants now come from integer ceil-division of the remaining work by the
// quantized rate instead of rounding a double quotient, which moved them by
// nanoseconds (the churn hash; fifo cluster 11089550816 -> 11089551302 ns,
// prophet 8484657037 -> 8484657046 ns), and the churn's PS-ingress total
// became the exact 62914560 bytes pushed (was 62914559, one byte lost to
// double truncation). Event counts, busy time and rates did not move.
//
// Incremental max-min recomputation (RebalanceMode::kIncremental, the
// default) reproduces the full algorithm's rates bit-identically
// (tests/test_incremental_rates.cpp proves this per-event under verify
// mode), and exact settlement makes byte totals, tracker bins and
// completion instants functions of those rates alone. The flow and cluster
// goldens below therefore run under BOTH modes against the same constants —
// if a future change moves one mode but not the other, the failure
// pinpoints which engine diverged. The grouped incast is the one scenario
// large enough to form a rate group, so it pins the O(log n) fast path and
// its tracker accounting against the kFull reference.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.hpp"

namespace prophet {
namespace {

using golden::hash_breakdown;
using golden::hash_schedule;
using golden::model_perf;
using golden::model_profile;

struct RefineGolden {
  std::int64_t t_wait_ns;
  std::int64_t span_ns;
  std::size_t applied;
  std::size_t evaluated;
  std::uint64_t sched_hash;
  std::uint64_t bd_hash;
  std::size_t tasks;
};

void expect_refine(const core::LocalSearchResult& got, const RefineGolden& want) {
  EXPECT_EQ(got.breakdown.t_wait.count_nanos(), want.t_wait_ns);
  EXPECT_EQ(got.breakdown.span.count_nanos(), want.span_ns);
  EXPECT_EQ(got.moves_applied, want.applied);
  EXPECT_EQ(got.moves_evaluated, want.evaluated);
  EXPECT_EQ(hash_schedule(got.schedule), want.sched_hash);
  EXPECT_EQ(hash_breakdown(got.breakdown), want.bd_hash);
  EXPECT_EQ(got.schedule.tasks.size(), want.tasks);
}

// --- Planner + full-evaluate goldens ---------------------------------------

TEST(GoldenPlanner, ResNet50) {
  const auto profile = model_profile(dnn::resnet50());
  const auto greedy =
      core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(3));
  EXPECT_EQ(greedy.tasks.size(), 20u);
  EXPECT_EQ(hash_schedule(greedy), 9423424468779032942ull);
  const auto pm = model_perf(dnn::resnet50());
  const auto eval = pm.evaluate(core::LocalSearchPlanner::retime(greedy, pm));
  EXPECT_EQ(eval.t_wait.count_nanos(), 4000000);
  EXPECT_EQ(eval.span.count_nanos(), 845510243);
  EXPECT_EQ(hash_breakdown(eval), 8632650164700459392ull);
}

TEST(GoldenPlanner, ResNet152) {
  const auto profile = model_profile(dnn::resnet152());
  const auto greedy =
      core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(3));
  EXPECT_EQ(greedy.tasks.size(), 54u);
  EXPECT_EQ(hash_schedule(greedy), 6287146089696557389ull);
  const auto pm = model_perf(dnn::resnet152());
  const auto eval = pm.evaluate(core::LocalSearchPlanner::retime(greedy, pm));
  EXPECT_EQ(eval.t_wait.count_nanos(), 4000000);
  EXPECT_EQ(eval.span.count_nanos(), 2264715373);
  EXPECT_EQ(hash_breakdown(eval), 12650727571343511294ull);
}

// --- Local-search goldens ---------------------------------------------------
// BlockPlanner output is already locally optimal for these models (0 applied
// moves), so the hard/random cases below start from deliberately poor
// schedules to pin the accept/commit path of the incremental evaluator.

TEST(GoldenRefine, ResNet50FromPlanner) {
  const auto pm = model_perf(dnn::resnet50());
  const auto greedy = core::BlockPlanner{net::TcpCostModel{}}.plan(
      pm.profile(), Bandwidth::gbps(3));
  expect_refine(core::LocalSearchPlanner{8}.refine(greedy, pm),
                {4000000, 845510243, 0, 212, 9423424468779032942ull,
                 8632650164700459392ull, 20});
}

TEST(GoldenRefine, ResNet152FromPlanner) {
  const auto pm = model_perf(dnn::resnet152());
  const auto greedy = core::BlockPlanner{net::TcpCostModel{}}.plan(
      pm.profile(), Bandwidth::gbps(3));
  expect_refine(core::LocalSearchPlanner{8}.refine(greedy, pm),
                {4000000, 2264715373, 0, 620, 6287146089696557389ull,
                 12650727571343511294ull, 54});
}

TEST(GoldenRefine, ResNet50SingletonStart) {
  const auto pm = model_perf(dnn::resnet50());
  const auto initial = golden::chunked_schedule(pm.profile().gradient_count(), 1);
  expect_refine(core::LocalSearchPlanner{16}.refine(initial, pm),
                {8891136, 850401379, 210, 3202, 3126980536504625264ull,
                 1389798525086048094ull, 17});
}

TEST(GoldenRefine, ResNet152ChunkedStart) {
  const auto pm = model_perf(dnn::resnet152());
  const auto initial = golden::chunked_schedule(pm.profile().gradient_count(), 4);
  expect_refine(core::LocalSearchPlanner{16}.refine(initial, pm),
                {4000000, 2264715373, 79, 1339, 4124185615626618052ull,
                 775783153660606382ull, 70});
}

TEST(GoldenRefine, RandomProfileSeed7) {
  expect_refine(golden::refine_random(7, 48),
                {653038400, 1146038400, 41, 412, 17919456594412970032ull,
                 11100656567336626467ull, 9});
}

TEST(GoldenRefine, RandomProfileSeed99) {
  expect_refine(golden::refine_random(99, 64),
                {1032091680, 1675091680, 54, 558, 16290249102299553018ull,
                 7461085279390808929ull, 12});
}

// --- Simulator goldens ------------------------------------------------------

TEST(GoldenSim, MixedCancelAndPeriodicTrace) {
  const golden::SimOutcome out = golden::run_mixed_cancel_and_periodic();
  EXPECT_EQ(out.events, 5493u);
  EXPECT_EQ(out.work, 5501u);
  EXPECT_EQ(out.end_ns, 758800000);
}

// --- FlowNetwork goldens ----------------------------------------------------

void expect_churn_golden(const golden::FlowOutcome& out) {
  EXPECT_EQ(out.done, 48);
  EXPECT_EQ(out.events, 114u);
  EXPECT_EQ(out.end_ns, 83344476);
  // Exactly the 6 x (1+2+3+4) MiB pushed: fixed-point settlement loses no
  // byte to truncation.
  EXPECT_EQ(out.ps_rx_bytes, 62914560);
  EXPECT_EQ(out.ps_rx_busy_ns, 66689436);
  EXPECT_EQ(out.hash, 1437601476341347098ull);
}

TEST(GoldenFlows, ChurnWithDynamicsTrace) {
  expect_churn_golden(golden::run_churn_with_dynamics(net::RebalanceMode::kIncremental));
}

TEST(GoldenFlows, ChurnWithDynamicsTraceFullRebalance) {
  expect_churn_golden(golden::run_churn_with_dynamics(net::RebalanceMode::kFull));
}

void expect_grouped_incast_golden(const golden::IncastOutcome& out) {
  EXPECT_EQ(out.done, 31);  // one of the 32 is cancelled mid-incast
  EXPECT_EQ(out.events, 98u);
  EXPECT_EQ(out.end_ns, 26606719);
  EXPECT_EQ(out.completion_hash, 532775338822432834ull);
  EXPECT_EQ(out.link_bytes_hash, 15248345223162335679ull);
  EXPECT_EQ(out.ps_rx_bytes, 11540759);
  EXPECT_EQ(out.bins_hash, 13517934231860257031ull);
  EXPECT_TRUE(out.tracker_sums_match);
}

TEST(GoldenFlows, GroupedIncastWithTrackers) {
  const golden::IncastOutcome out =
      golden::run_grouped_incast(net::RebalanceMode::kIncremental);
  expect_grouped_incast_golden(out);
  // The scenario must actually run on the rate-group path.
  EXPECT_GE(out.stats.group_forms, 1u);
  EXPECT_GT(out.stats.group_fast_events, 0u);
}

TEST(GoldenFlows, GroupedIncastWithTrackersFullRebalance) {
  expect_grouped_incast_golden(golden::run_grouped_incast(net::RebalanceMode::kFull));
}

// --- Full-cluster goldens ---------------------------------------------------

void expect_fifo_golden(const ps::ClusterResult& result) {
  EXPECT_EQ(result.events_fired, 36038u);
  EXPECT_EQ(result.simulated_time.count_nanos(), 11089551302);
  EXPECT_EQ(static_cast<std::int64_t>(result.mean_rate() * 100.0), 5618);
}

void expect_prophet_golden(const ps::ClusterResult& result) {
  EXPECT_EQ(result.events_fired, 10838u);
  EXPECT_EQ(result.simulated_time.count_nanos(), 8484657046);
  EXPECT_EQ(static_cast<std::int64_t>(result.mean_rate() * 100.0), 7537);
}

ps::ClusterResult run_golden_cluster(const ps::StrategyConfig& strategy,
                                     net::RebalanceMode mode) {
  return ps::run_cluster(golden::golden_cluster_config(strategy, mode), 5);
}

TEST(GoldenCluster, FifoTrace) {
  expect_fifo_golden(run_golden_cluster(ps::StrategyConfig::fifo(),
                                        net::RebalanceMode::kIncremental));
}

TEST(GoldenCluster, FifoTraceFullRebalance) {
  expect_fifo_golden(run_golden_cluster(ps::StrategyConfig::fifo(),
                                        net::RebalanceMode::kFull));
}

TEST(GoldenCluster, ProphetTrace) {
  expect_prophet_golden(run_golden_cluster(ps::StrategyConfig::prophet(),
                                           net::RebalanceMode::kIncremental));
}

TEST(GoldenCluster, ProphetTraceFullRebalance) {
  expect_prophet_golden(run_golden_cluster(ps::StrategyConfig::prophet(),
                                           net::RebalanceMode::kFull));
}

// The ring golden pins the all-reduce event order: captured before the ring
// moved onto the PS worker's compute loop, it must not move with it.
void expect_ring_golden(const ar::AllReduceResult& result) {
  EXPECT_EQ(result.events_fired, 4691u);
  EXPECT_EQ(result.simulated_time.count_nanos(), 2707112954);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.mean_rate()), 0x405e395195d17240ull);
}

TEST(GoldenCluster, RingProphetTrace) {
  expect_ring_golden(
      ar::run_allreduce(golden::golden_ring_config(net::RebalanceMode::kIncremental), 5));
}

TEST(GoldenCluster, RingProphetTraceFullRebalance) {
  expect_ring_golden(
      ar::run_allreduce(golden::golden_ring_config(net::RebalanceMode::kFull), 5));
}

// --- Event-pool mechanics ---------------------------------------------------

TEST(EventPool, SlotsAreReusedAcrossBatches) {
  sim::Simulator sim;
  for (int batch = 0; batch < 50; ++batch) {
    for (int i = 0; i < 100; ++i) {
      sim.schedule_after(Duration::micros(i), [] {});
    }
    sim.run();
  }
  // 5000 events total, but never more than one batch in flight: the slab's
  // high-water mark stays at one batch (plus nothing else), not 5000.
  EXPECT_LE(sim.event_slot_count(), 100u);
}

TEST(EventPool, CancelledSlotsAreReclaimed) {
  sim::Simulator sim;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 64; ++i) {
      handles.push_back(sim.schedule_after(Duration::micros(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.run();
  }
  EXPECT_LE(sim.event_slot_count(), 64u);
}

TEST(EventPool, StaleHandleDoesNotCancelSlotReuser) {
  sim::Simulator sim;
  bool first_ran = false;
  bool second_ran = false;
  sim::EventHandle first = sim.schedule_after(Duration::micros(1), [&] { first_ran = true; });
  sim.run();
  ASSERT_TRUE(first_ran);
  ASSERT_FALSE(first.pending());
  // The second event reuses the first event's slot (LIFO free list); the
  // generation bump must keep the stale handle inert.
  sim::EventHandle second =
      sim.schedule_after(Duration::micros(1), [&] { second_ran = true; });
  EXPECT_EQ(sim.event_slot_count(), 1u);
  first.cancel();  // must be a no-op: generation differs
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_TRUE(second_ran);
}

TEST(EventPool, HandleOutlivesSimulator) {
  sim::EventHandle escaped;
  {
    sim::Simulator sim;
    escaped = sim.schedule_after(Duration::micros(5), [] {});
    EXPECT_TRUE(escaped.pending());
  }
  // The pool is shared with the handle, so this neither crashes nor reports
  // a live event.
  EXPECT_FALSE(escaped.pending());
  escaped.cancel();
}

TEST(EventPool, SelfCancelInsideCallbackIsSafe) {
  sim::Simulator sim;
  sim::EventHandle h;
  int runs = 0;
  h = sim.schedule_after(Duration::micros(1), [&] {
    ++runs;
    h.cancel();  // already firing: must be a no-op, not a double release
  });
  sim.run();
  EXPECT_EQ(runs, 1);
  sim.schedule_after(Duration::micros(1), [&] { ++runs; });
  sim.run();
  EXPECT_EQ(runs, 2);
}

}  // namespace
}  // namespace prophet
