// Cluster driver: wires N workers, one PS, the flow network and the chosen
// communication strategy into a Simulator, runs the training job, and
// collects every measurement the paper's evaluation reports.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/time_series.hpp"
#include "dnn/model_zoo.hpp"
#include "metrics/gpu_tracker.hpp"
#include "metrics/training_metrics.hpp"
#include "metrics/transfer_log.hpp"
#include "net/flow_network.hpp"
#include "ps/config.hpp"

namespace prophet::ps {

struct WorkerResult {
  std::size_t id = 0;
  // Headline numbers over the default measurement window.
  double rate_samples_per_sec = 0.0;
  double gpu_utilization = 0.0;
  std::size_t iterations_completed = 0;
  std::optional<std::size_t> prophet_activated_at;
  // Drift-triggered bandwidth re-plans (Prophet only; zero otherwise).
  std::size_t prophet_replans = 0;
  // Full series/logs for timeline benches.
  metrics::TrainingMetrics training;
  metrics::TransferLog transfers;
  BinnedSeries gpu_series;
  // Raw GPU busy intervals (trace export).
  std::vector<std::pair<TimePoint, TimePoint>> gpu_intervals;
  BinnedSeries tx_series;
  BinnedSeries rx_series;
};

struct ClusterResult {
  std::vector<WorkerResult> workers;
  // Measurement window (iterations) used for the headline numbers.
  std::size_t measure_first = 0;
  std::size_t measure_last = 0;
  Duration simulated_time{};
  std::uint64_t events_fired = 0;
  // BSP invariant checks evaluated by the auditor (0 under ASP).
  std::size_t audit_checks = 0;
  // Rebalance-engine counters (settlements, component walks, rate-group
  // lifecycle, verify checks) for the network this job ran on. Under
  // multi-job sharing the fabric is common, so every job reports the same
  // shared snapshot.
  net::RebalanceStats rebalance;
  // Whole bytes each fabric link carried over the run, indexed by LinkId
  // (single-job driver only).
  std::vector<std::int64_t> link_bytes;

  // Mean per-worker training rate (samples/s) over the window.
  [[nodiscard]] double mean_rate() const;
  [[nodiscard]] double mean_utilization() const;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  // Runs the configured number of iterations and gathers results. The rate
  // window defaults to [warmup, iterations), where warmup skips Prophet's
  // profiling phase (plus slack) so strategies are compared at steady state;
  // pass `measure_first` to override.
  [[nodiscard]] ClusterResult run(std::optional<std::size_t> measure_first = {});

  [[nodiscard]] const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
};

// One-call convenience used by benches and tests.
ClusterResult run_cluster(const ClusterConfig& config,
                          std::optional<std::size_t> measure_first = {});

}  // namespace prophet::ps
