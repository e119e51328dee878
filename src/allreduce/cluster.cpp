#include "allreduce/cluster.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "allreduce/coordinator.hpp"
#include "common/check.hpp"
#include "net/flow_network.hpp"
#include "net/monitor.hpp"
#include "net/topology.hpp"
#include "ps/compute_loop.hpp"
#include "ps/strategy.hpp"
#include "sim/simulator.hpp"

namespace prophet::ar {
namespace {

// One ring member: the shared compute loop with the ring as its aggregation
// side. Forward layer i of iteration k waits for the k-th completed
// reduction of key i; every flushed gradient is reported to the Coordinator.
class RingMember final : public ps::ComputeLoop {
 public:
  RingMember(sim::Simulator& sim, std::size_t id, const ps::ClusterConfig& cfg,
             const dnn::IterationModel* iteration_model, Coordinator& coordinator,
             Rng rng)
      : ComputeLoop{sim, id, cfg.iterations, iteration_model, cfg.batch,
                    cfg.metrics_bin, cfg.metrics_horizon, rng},
        coordinator_{coordinator} {}

 private:
  [[nodiscard]] std::size_t updates_received(std::size_t layer) const override {
    return coordinator_.reductions_completed(layer);
  }

  void on_backward_start(TimePoint now) override {
    // Worker 0 drives the scheduler's iteration lifecycle (BSP keeps the
    // members within jitter of each other).
    if (id() != 0) return;
    const std::size_t iter = current_iteration();
    if (iter > 0) coordinator_.on_iteration_end(iter - 1, now);
    coordinator_.on_iteration_start(iter, now);
  }

  void on_flush(std::span<const FlushRun> runs) override {
    for (const FlushRun& run : runs) {
      for (std::size_t g = run.begin; g < run.end; ++g) {
        coordinator_.on_gradient_ready(id(), g);
      }
    }
  }

  Coordinator& coordinator_;
};

}  // namespace

AllReduceResult run_allreduce(const ps::ClusterConfig& cfg,
                              std::optional<std::size_t> measure_first) {
  cfg.validate();
  PROPHET_CHECK_MSG(cfg.num_workers >= 2,
                    "run_allreduce: a ring needs at least 2 workers");
  PROPHET_CHECK_MSG(cfg.dynamics.empty(),
                    "run_allreduce: the ring does not apply dynamics or fault "
                    "plans; run them on the PS architecture");
  PROPHET_CHECK_MSG(cfg.sync == ps::SyncMode::kBsp,
                    "run_allreduce: the ring gates every layer on a completed "
                    "reduction and is BSP by construction; ASP needs the PS "
                    "architecture");
  sim::Simulator sim;
  const net::TcpCostModel cost{cfg.tcp};
  net::FlowNetwork network{sim, cost, cfg.rate_rebalance};
  network.set_verify_rates(cfg.verify_rates);
  net::BuiltTopology topology{network, cfg.topology};

  std::vector<net::NodeId> nodes;
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    nodes.push_back(
        topology.add_host("worker" + std::to_string(w), cfg.bandwidth_of_worker(w)));
  }

  const dnn::IterationModel iteration_model{cfg.model, cfg.gpu, cfg.batch,
                                            cfg.kvstore, cfg.jitter_sigma};

  // The collective scheduler sees the ring's effective per-member rate.
  net::BandwidthMonitor monitor{sim, network, nodes[0], net::Direction::kTx,
                                cfg.monitor};
  auto scheduler =
      ps::make_scheduler(cfg.strategy, sched::TaskKind::kPush,
                         cfg.model.tensor_count(),
                         [&monitor] { return monitor.estimate(); }, cost);

  std::vector<std::unique_ptr<RingMember>> workers;
  Coordinator coordinator{sim,
                          network,
                          nodes,
                          cfg.model,
                          std::move(scheduler),
                          [&workers](std::size_t w, std::size_t /*key*/) {
                            workers[w]->on_update();
                          }};

  Rng root{cfg.seed};
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    workers.push_back(std::make_unique<RingMember>(sim, w, cfg, &iteration_model,
                                                   coordinator, root.fork(w)));
  }
  for (auto& worker : workers) worker->start();

  const TimePoint horizon = TimePoint::origin() + cfg.metrics_horizon;
  auto all_done = [&] {
    return std::all_of(workers.begin(), workers.end(),
                       [](const auto& w) { return w->done(); });
  };
  while (!all_done() && sim.now() < horizon) {
    if (!sim.step()) break;
  }
  PROPHET_CHECK_MSG(all_done(), "all-reduce training did not finish in time");
  const Duration span = sim.now() - TimePoint::origin();
  for (auto& worker : workers) worker->finish();
  monitor.stop();
  sim.run_until(horizon);

  const std::size_t first =
      measure_first.has_value() ? *measure_first : ps::default_measure_first(cfg);
  // No NIC trackers, which keeps tracker updates off the ring's per-flow
  // settlement path; its throughput series stay zero.
  const BinnedSeries untracked{cfg.metrics_bin, cfg.metrics_horizon};
  AllReduceResult result;
  result.measure_first = first;
  result.measure_last = cfg.iterations;
  result.simulated_time = span;
  result.events_fired = sim.events_fired();
  result.rebalance = network.rebalance_stats();
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    RingMember& worker = *workers[w];
    result.workers.push_back(ps::WorkerResult::measure(
        w, first, cfg.iterations, worker.current_iteration(),
        worker.take_training_metrics(), worker.take_gpu(), untracked, untracked));
  }
  return result;
}

}  // namespace prophet::ar
