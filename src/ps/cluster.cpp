#include "ps/cluster.hpp"

#include <utility>

#include "common/check.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

double ClusterResult::mean_rate() const {
  PROPHET_CHECK(!workers.empty());
  double total = 0.0;
  for (const auto& w : workers) total += w.rate_samples_per_sec;
  return total / static_cast<double>(workers.size());
}

double ClusterResult::mean_utilization() const {
  PROPHET_CHECK(!workers.empty());
  double total = 0.0;
  for (const auto& w : workers) total += w.gpu_utilization;
  return total / static_cast<double>(workers.size());
}

Cluster::Cluster(ClusterConfig config) : config_{std::move(config)} {
  config_.validate();
}

ClusterResult Cluster::run(std::optional<std::size_t> measure_first) {
  const ClusterConfig& cfg = config_;
  sim::Simulator sim;
  const net::TcpCostModel cost{cfg.tcp};
  net::FlowNetwork network{sim, cost, cfg.rate_rebalance};
  network.set_verify_rates(cfg.verify_rates);
  net::BuiltTopology topology{network, cfg.resolved_topology()};

  JobRuntime job{sim, network, topology, cfg};
  job.start();

  // Run until every worker crossed its final iteration boundary (residual
  // pulls may still be in flight), bounded by the metrics horizon.
  const TimePoint horizon = TimePoint::origin() + cfg.metrics_horizon;
  while (!job.done() && sim.now() < horizon) {
    if (!sim.step()) break;
  }
  PROPHET_CHECK_MSG(job.done(), "training did not finish within the metrics horizon");
  job.recover_crashed();
  job.disarm_faults();
  job.finish_training(sim.now());
  // Drain residual network traffic (monitors are stopped, so this converges).
  sim.run_until(horizon);
  job.finish_audit();

  ClusterResult result = job.collect(measure_first, sim.events_fired());
  for (net::LinkId l = 0; l < network.link_count(); ++l) {
    result.link_bytes.push_back(network.link_total_bytes(l));
  }
  return result;
}

ClusterResult run_cluster(const ClusterConfig& config,
                          std::optional<std::size_t> measure_first) {
  Cluster cluster{config};
  return cluster.run(measure_first);
}

}  // namespace prophet::ps
