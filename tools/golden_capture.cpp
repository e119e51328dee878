// Prints the engine's golden constants: every scenario in
// tests/golden_scenarios.hpp, run against the tree this binary was built
// from. tests/test_engine_perf_invariants.cpp pins these values (and
// tests/test_topology.cpp repeats the fifo cluster line). Flow, cluster and
// ring scenarios print once per rebalance mode; the tests pin both modes to the
// same constants, so two lines that differ name the diverging engine.
//
// Usage: ./build/tools/golden_capture
#include <bit>
#include <cstdint>
#include <cstdio>

#include "golden_scenarios.hpp"

namespace prophet::golden {
namespace {

const char* mode_name(net::RebalanceMode mode) {
  return mode == net::RebalanceMode::kFull ? "full" : "incremental";
}

void capture_planner(const char* name, const dnn::ModelSpec& model) {
  const auto pm = model_perf(model);
  const auto greedy = core::BlockPlanner{net::TcpCostModel{}}.plan(model_profile(model),
                                                                   Bandwidth::gbps(3));
  std::printf("planner %s plan_tasks=%zu plan_hash=%lluull\n", name, greedy.tasks.size(),
              static_cast<unsigned long long>(hash_schedule(greedy)));
  const auto eval = pm.evaluate(core::LocalSearchPlanner::retime(greedy, pm));
  std::printf("planner %s greedy_twait=%lld greedy_span=%lld eval_hash=%lluull\n", name,
              static_cast<long long>(eval.t_wait.count_nanos()),
              static_cast<long long>(eval.span.count_nanos()),
              static_cast<unsigned long long>(hash_breakdown(eval)));
}

void print_refine(const char* label, const core::LocalSearchResult& r) {
  std::printf(
      "refine %s twait=%lld span=%lld applied=%zu evaluated=%zu "
      "sched_hash=%lluull bd_hash=%lluull tasks=%zu\n",
      label, static_cast<long long>(r.breakdown.t_wait.count_nanos()),
      static_cast<long long>(r.breakdown.span.count_nanos()), r.moves_applied,
      r.moves_evaluated, static_cast<unsigned long long>(hash_schedule(r.schedule)),
      static_cast<unsigned long long>(hash_breakdown(r.breakdown)),
      r.schedule.tasks.size());
}

void capture_refine(const char* label, const dnn::ModelSpec& model, std::size_t chunk,
                    std::size_t steps) {
  const auto pm = model_perf(model);
  core::Schedule initial =
      chunk == 0 ? core::BlockPlanner{net::TcpCostModel{}}.plan(pm.profile(),
                                                                Bandwidth::gbps(3))
                 : chunked_schedule(pm.profile().gradient_count(), chunk);
  print_refine(label, core::LocalSearchPlanner{steps}.refine(initial, pm));
}

void capture_flows(net::RebalanceMode mode) {
  const FlowOutcome out = run_churn_with_dynamics(mode);
  std::printf("flows %s done=%d events=%llu end_ns=%lld ps_rx_bytes=%lld busy_ns=%lld "
              "hash=%lluull\n",
              mode_name(mode), out.done, static_cast<unsigned long long>(out.events),
              static_cast<long long>(out.end_ns), static_cast<long long>(out.ps_rx_bytes),
              static_cast<long long>(out.ps_rx_busy_ns),
              static_cast<unsigned long long>(out.hash));
}

void capture_incast(net::RebalanceMode mode) {
  const IncastOutcome out = run_grouped_incast(mode);
  std::printf("incast %s done=%d events=%llu end_ns=%lld completion_hash=%lluull "
              "link_bytes_hash=%lluull ps_rx_bytes=%lld bins_hash=%lluull "
              "tracker_sums_match=%d group_forms=%llu\n",
              mode_name(mode), out.done, static_cast<unsigned long long>(out.events),
              static_cast<long long>(out.end_ns),
              static_cast<unsigned long long>(out.completion_hash),
              static_cast<unsigned long long>(out.link_bytes_hash),
              static_cast<long long>(out.ps_rx_bytes),
              static_cast<unsigned long long>(out.bins_hash),
              out.tracker_sums_match ? 1 : 0,
              static_cast<unsigned long long>(out.stats.group_forms));
}

void capture_cluster(const char* name, const ps::StrategyConfig& strategy,
                     net::RebalanceMode mode) {
  const auto result = ps::run_cluster(golden_cluster_config(strategy, mode), 5);
  std::printf("cluster %s %s events=%llu sim_ns=%lld rate_centi=%lld\n", name,
              mode_name(mode), static_cast<unsigned long long>(result.events_fired),
              static_cast<long long>(result.simulated_time.count_nanos()),
              static_cast<long long>(result.mean_rate() * 100.0));
}

void capture_ring(net::RebalanceMode mode) {
  const auto result = ar::run_allreduce(golden_ring_config(mode), 5);
  std::printf("ring prophet %s events=%llu sim_ns=%lld rate_bits=0x%llxull\n",
              mode_name(mode), static_cast<unsigned long long>(result.events_fired),
              static_cast<long long>(result.simulated_time.count_nanos()),
              static_cast<unsigned long long>(
                  std::bit_cast<std::uint64_t>(result.mean_rate())));
}

}  // namespace
}  // namespace prophet::golden

int main() {
  using namespace prophet;
  using namespace prophet::golden;
  capture_planner("resnet50", dnn::resnet50());
  capture_planner("resnet152", dnn::resnet152());
  capture_refine("resnet50_from_planner", dnn::resnet50(), 0, 8);
  capture_refine("resnet152_from_planner", dnn::resnet152(), 0, 8);
  capture_refine("resnet50_singleton_start", dnn::resnet50(), 1, 16);
  capture_refine("resnet152_chunked_start", dnn::resnet152(), 4, 16);
  print_refine("random_seed7", refine_random(7, 48));
  print_refine("random_seed99", refine_random(99, 64));
  const SimOutcome sim = run_mixed_cancel_and_periodic();
  std::printf("sim events=%llu work=%llu end_ns=%lld\n",
              static_cast<unsigned long long>(sim.events),
              static_cast<unsigned long long>(sim.work),
              static_cast<long long>(sim.end_ns));
  for (const auto mode : {net::RebalanceMode::kIncremental, net::RebalanceMode::kFull}) {
    capture_flows(mode);
    capture_incast(mode);
    capture_cluster("fifo", ps::StrategyConfig::fifo(), mode);
    capture_cluster("prophet", ps::StrategyConfig::prophet(), mode);
    capture_ring(mode);
  }
  return 0;
}
