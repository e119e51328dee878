// One training job wired into a (possibly shared) simulator and network:
// the PS, its workers, the BSP auditor and the armed dynamics plan, so
// several jobs can coexist in one event loop on one fabric.
//
// Lifecycle:
//   construct      — places hosts on the topology, builds server/workers;
//   run_jobs(...)  — the one training loop every PS driver calls: start()
//                    each job, step the shared simulator, finalize each job
//                    the instant done() turns true (recover_crashed,
//                    disarm_faults, finish_training), drain, finish_audit;
//   collect(...)   — per-worker results over the measurement window; moves
//                    each worker's series and logs into the result, so it
//                    may be called once.
//
// ps::run_cluster is one job with default JobOptions on the config's own
// fabric; cluster::run_multi_job is placement plus interleave plus the same
// call. A zero-offset start() calls Worker::start directly (no extra
// scheduled event), so a one-job multi-job run on a star replays the
// single-job run's event sequence exactly.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/bsp_auditor.hpp"
#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "dnn/iteration_model.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/config.hpp"
#include "ps/server.hpp"
#include "ps/worker.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

// Per-job placement and pacing decisions, made by the cluster scheduler.
struct JobOptions {
  // Prepended to node names so jobs sharing one network stay distinguishable
  // ("job0." -> "job0.ps", "job0.worker1").
  std::string name_prefix;
  // Delay before iteration 0 (CASSINI-style communication-phase
  // interleaving staggers jobs sharing an oversubscribed uplink).
  Duration start_offset{};
  // Leaf-spine placement: rack index for the PS / each worker. Unset entries
  // fall back to sequential first-fit; ignored on a star.
  std::optional<std::size_t> ps_rack;
  std::vector<std::size_t> worker_racks;
};

class JobRuntime {
 public:
  JobRuntime(sim::Simulator& sim, net::FlowNetwork& network,
             net::BuiltTopology& topology, ClusterConfig config,
             JobOptions options = {});
  // Scheduled dynamics callbacks capture `this`.
  JobRuntime(const JobRuntime&) = delete;
  JobRuntime& operator=(const JobRuntime&) = delete;

  // Starts every worker (synchronously for a zero offset) and arms the
  // job's dynamics plan, offset along with the job.
  void start();

  // Every worker crossed its final iteration boundary (residual pulls may
  // still be in flight).
  [[nodiscard]] bool done() const;

  // Training can finish while an already-done worker is still down (its
  // recover event lands past the finish line, where it will be dropped);
  // brings it back so the audit sees a whole cluster.
  void recover_crashed();
  // Stops crash/recovery/loss events of a plan that extends past the finish
  // line from perturbing drained state.
  void disarm_faults() { faults_live_ = false; }
  // Records the training span ending at `now` and closes worker metrics.
  void finish_training(TimePoint now);
  // Final BSP audit over the full run; call after the network drained.
  void finish_audit();

  [[nodiscard]] TimePoint start_time() const {
    return TimePoint::origin() + options_.start_offset;
  }
  // Time from the shared origin until the job crossed its final iteration.
  [[nodiscard]] Duration finish_time() const {
    return options_.start_offset + training_span_;
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  // First PS host (the whole tier when ps_shards == 1).
  [[nodiscard]] net::NodeId ps_node() const { return ps_nodes_.front(); }
  // One host per PS shard (ps_nodes()[s] serves shard s).
  [[nodiscard]] const std::vector<net::NodeId>& ps_nodes() const {
    return ps_nodes_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& worker_nodes() const {
    return worker_nodes_;
  }

  // Gathers per-worker results over [measure_first, iterations), defaulting
  // to default_measure_first(config()). `events_fired` is the
  // simulator-wide count (jobs sharing a loop share it). The result takes
  // ownership of every worker's GPU and tx/rx series, GPU intervals and
  // transfer log instead of copying them; a second call aborts.
  [[nodiscard]] ClusterResult collect(std::optional<std::size_t> measure_first,
                                      std::uint64_t events_fired);

 private:
  void apply_event(const net::DynamicsEvent& ev);

  sim::Simulator& sim_;
  net::FlowNetwork& network_;
  ClusterConfig config_;
  JobOptions options_;
  net::TcpCostModel cost_;
  std::vector<net::NodeId> ps_nodes_;
  std::vector<net::NodeId> worker_nodes_;
  std::vector<BinnedSeries> tx_series_;
  std::vector<BinnedSeries> rx_series_;
  std::unique_ptr<dnn::IterationModel> iteration_model_;
  std::unique_ptr<audit::BspAuditor> auditor_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Configured capacities of link-targeted dynamics, snapshotted at arm time
  // so repeated scale events never compound.
  std::map<net::LinkId, Bandwidth> link_base_caps_;
  bool faults_live_ = true;
  bool collected_ = false;
  Duration training_span_{};
};

// Runs every job to completion in one event loop: starts each, steps `sim`
// and finalizes each job the instant it crosses its final iteration while
// the rest run on, aborts if any job misses `horizon`, drains residual
// traffic up to `horizon` (monitors are stopped, so this converges) and runs
// each job's final audit.
void run_jobs(sim::Simulator& sim,
              const std::vector<std::unique_ptr<JobRuntime>>& jobs,
              TimePoint horizon);

}  // namespace prophet::ps
