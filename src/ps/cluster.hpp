// Single-job driver and the result type every training driver returns: the
// PS cluster (run_cluster), the multi-job fabric (cluster::run_multi_job,
// one per job) and the ring all-reduce (ar::run_allreduce) all report a
// ClusterResult measured over the same default window.
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

  // A worker's series, with its headline numbers taken over the window
  // [first, last); the result takes ownership of what it is handed. The PS
  // driver adds its Prophet and transfer-log fields.
  static WorkerResult measure(std::size_t id, std::size_t first, std::size_t last,
                              std::size_t iterations_completed,
                              metrics::TrainingMetrics training, metrics::GpuTracker gpu,
                              BinnedSeries tx, BinnedSeries rx);
};

struct ClusterResult {
  std::vector<WorkerResult> workers;
  // Measurement window (iterations) used for the headline numbers.
  std::size_t measure_first = 0;
  std::size_t measure_last = 0;
  Duration simulated_time{};
  std::uint64_t events_fired = 0;
  // BSP invariant checks evaluated by the auditor (0 under ASP and on the
  // ring, which has no auditor).
  std::size_t audit_checks = 0;
  // Rebalance-engine counters (settlements, component walks, rate-group
  // lifecycle, verify checks) for the network this job ran on. Under
  // multi-job sharing the fabric is common, so every job reports the same
  // shared snapshot.
  net::RebalanceStats rebalance;
  // Whole bytes each fabric link carried over the run, indexed by LinkId
  // (run_cluster only; run_multi_job reports them per fabric).
  std::vector<std::int64_t> link_bytes;

  // Mean per-worker training rate (samples/s) over the window.
  [[nodiscard]] double mean_rate() const;
  [[nodiscard]] double mean_utilization() const;
};

// First iteration of the default measurement window: past Prophet's
// profiling phase (plus slack), so every strategy and architecture is
// compared at steady state under one rule. Aborts when `config` runs too
// few iterations to measure past it.
[[nodiscard]] std::size_t default_measure_first(const ClusterConfig& config);

// Runs one job on the config's own fabric (hosts named "ps", "worker0", ...)
// and gathers its results over [measure_first, iterations), the window
// defaulting to default_measure_first(config).
ClusterResult run_cluster(const ClusterConfig& config,
                          std::optional<std::size_t> measure_first = {});

}  // namespace prophet::ps
