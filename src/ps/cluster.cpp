#include "ps/cluster.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

WorkerResult WorkerResult::measure(std::size_t id, std::size_t first, std::size_t last,
                                   std::size_t iterations_completed,
                                   metrics::TrainingMetrics training,
                                   metrics::GpuTracker gpu, BinnedSeries tx,
                                   BinnedSeries rx) {
  const double rate = training.rate_samples_per_sec(first, last);
  const double utilization =
      gpu.utilization(training.iteration_start(first), training.iteration_start(last));
  return {.id = id,
          .rate_samples_per_sec = rate,
          .gpu_utilization = utilization,
          .iterations_completed = iterations_completed,
          .prophet_activated_at = {},
          .prophet_replans = 0,
          .training = std::move(training),
          .transfers = {},
          .gpu_series = gpu.take_series(),
          .gpu_intervals = gpu.take_intervals(),
          .tx_series = std::move(tx),
          .rx_series = std::move(rx)};
}

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

std::size_t default_measure_first(const ClusterConfig& config) {
  std::size_t warmup = 3;
  if (config.strategy.kind == StrategyConfig::Kind::kProphet) {
    warmup = config.strategy.prophet_config.profile_iterations + 3;
  }
  PROPHET_CHECK_MSG(warmup + 1 < config.iterations,
                    "not enough iterations to measure past warmup");
  return warmup;
}

ClusterResult run_cluster(const ClusterConfig& config,
                          std::optional<std::size_t> measure_first) {
  config.validate();
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{config.tcp}, config.rate_rebalance};
  network.set_verify_rates(config.verify_rates);
  net::BuiltTopology topology{network, config.resolved_topology()};

  std::vector<std::unique_ptr<JobRuntime>> jobs;
  jobs.push_back(std::make_unique<JobRuntime>(sim, network, topology, config));
  run_jobs(sim, jobs, TimePoint::origin() + config.metrics_horizon);

  ClusterResult result = jobs.front()->collect(measure_first, sim.events_fired());
  for (net::LinkId l = 0; l < network.link_count(); ++l) {
    result.link_bytes.push_back(network.link_total_bytes(l));
  }
  return result;
}

}  // namespace prophet::ps
