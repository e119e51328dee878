// Shared pieces of the benchmark harness: the three workloads, one driver
// call per cell, the simulated fingerprint every call is checked against,
// and the metric line the runner prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/multi_job.hpp"
#include "cluster/scheduler.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/config.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::perfbench {

// Which public driver a cell calls.
enum class CellKind {
  kPs,        // ps::run_cluster
  kRing,      // ar::run_allreduce
  kMultiJob,  // cluster::run_multi_job
};

struct Cell {
  std::string label;
  CellKind kind = CellKind::kPs;
  // kPs / kRing: the job. kMultiJob: unused.
  ps::ClusterConfig config;
  // kMultiJob: the shared fabric and its jobs (each job named after the
  // rate metric it feeds).
  cluster::MultiJobConfig multi;
  // kPs / kRing: the rate metric this cell feeds ("prophet", "fifo", ...,
  // "ring_prophet").
  std::string rate_key;
};

struct Workload {
  std::vector<Cell> cells;
  // Threads the timed run gives exec::run_sweep (1 = plain serial loop).
  unsigned threads = 1;
};

// Rate metric keys, in report order.
const std::vector<std::string>& rate_keys();
// The PS strategies every workload runs, as (rate key, registry name).
const std::vector<std::pair<std::string, std::string>>& ps_strategies();

// Builds a workload's cells from `seed`. Throws std::invalid_argument for an
// unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);
const std::vector<std::string>& workload_names();

// Outcome of one driver call.
struct CallResult {
  std::uint64_t fingerprint = 0;
  // Training iterations summed over every worker of every job.
  std::size_t worker_iterations = 0;
  // Simulated seconds until the last worker or job crossed its final
  // iteration.
  double makespan_s = 0.0;
  // (rate key, mean per-worker samples/s over the post-warmup window).
  std::vector<std::pair<std::string, double>> rates;
  // Empty when the call passed its checks (iterations complete, BSP audit
  // ran, rates finite and positive).
  std::string error;
  // Host wall time of the driver call.
  double host_ms = 0.0;
};

// Calls the cell's public driver and checks its result.
CallResult run_cell(const Cell& cell);

// Checks and fingerprints driver results (simulated time, events fired,
// per-worker rates and iterations). Also used by the traced run, so its
// JobRuntime-driven results are fingerprinted exactly like the drivers'.
CallResult summarize_ps(const ps::ClusterResult& result,
                        const ps::ClusterConfig& config,
                        const std::string& rate_key);
CallResult summarize_multi(const cluster::MultiJobResult& result,
                           const cluster::MultiJobConfig& config);

// One cell's simulator, fabric and jobs, built through the public
// constructors exactly as the cell's driver builds them, but not started.
// The timed run builds these only to measure set-up; the traced run also
// drives them through the JobRuntime lifecycle.
struct Runtime {
  explicit Runtime(const Cell& cell);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  sim::Simulator sim;
  net::FlowNetwork network;
  net::BuiltTopology topology;
  // kPs: one job; kMultiJob: one per submitted job, in submission order.
  std::vector<cluster::Placement> placements;
  std::vector<Duration> offsets;
  std::vector<std::unique_ptr<ps::JobRuntime>> jobs;
  // kRing: the ring members (run_allreduce adds bare nodes, no topology).
  std::vector<net::NodeId> ring_nodes;
  // Event-loop bound the driver uses.
  Duration horizon{};
};

// Host wall clock in milliseconds.
inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Machine-speed calibration. On a shared machine, host timings drift by
// tens of percent over minutes (other tenants, power capping), more than
// the regressions the benchmark must resolve. The timed run therefore times
// a fixed reference kernel, written here and independent of src/, before
// and after every measured interval, and scales the interval by
// kReferenceMs over the kernel's time. Reported host times read as the time
// on a machine where the kernel takes kReferenceMs. A change to the
// simulator moves the measured interval, never the kernel.
inline constexpr double kReferenceMs = 100.0;
// Runs the kernel once and returns its wall time in ms. Its 128 MiB table
// is allocated and filled outside the timed part.
double calibration_kernel_ms();

double median(std::vector<double> values);
double geomean(const std::vector<double>& values);
// Peak resident set of this process so far, MiB.
double peak_rss_mb();

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Outcome of a timed or traced run.
struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // What failed (driver calls and the traced run's fidelity and byte
  // checks), at most ten per kind; any entry makes the run incorrect.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
};

RunReport run_timed(const std::string& workload, std::uint64_t seed,
                    double seconds);
RunReport run_traced(const std::string& workload, std::uint64_t seed);

}  // namespace prophet::perfbench
