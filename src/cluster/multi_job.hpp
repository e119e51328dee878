// Multi-job driver: N training jobs in ONE simulator event loop on ONE
// shared FlowNetwork, with the cluster scheduler deciding rack placement and
// start interleaving. Jobs contend for the fabric exactly the way their
// flows do — there is no cross-job modeling shortcut; an oversubscribed
// uplink shared by two jobs throttles both through ordinary max-min fairness.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/scheduler.hpp"
#include "common/time.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"

namespace prophet::cluster {

struct MultiJobConfig {
  net::TopologySpec topology = net::TopologySpec::leaf_spine(
      /*racks=*/2, /*hosts_per_rack=*/4, Bandwidth::gbps(10),
      /*oversubscription=*/4.0);
  std::vector<JobSpec> jobs;
  PlacementPolicy placement = PlacementPolicy::kNetworkAware;
  InterleavePolicy interleave = InterleavePolicy::kCassini;
  // Shared event-loop bound; every job must finish training within it.
  Duration horizon = Duration::seconds(900);
  // Rate-rebalance engine for the shared fabric (see ClusterConfig).
  net::RebalanceMode rate_rebalance = net::RebalanceMode::kIncremental;
  bool verify_rates = false;
};

struct JobOutcome {
  std::string name;
  ps::ClusterResult result;
  Placement placement;
  Duration start_offset{};
  // Job's last training event, measured from the shared origin (includes the
  // start offset); finish - offset is the job's own training span.
  Duration finish_time{};
};

struct MultiJobResult {
  std::vector<JobOutcome> jobs;
  // Time from origin until the last job crossed its final iteration — the
  // number the scheduling policies compete on.
  Duration makespan{};
  std::uint64_t events_fired = 0;
  // Bytes that crossed any rack uplink/downlink (zero: nothing used the
  // spine, i.e. placement achieved full locality).
  std::int64_t spine_bytes = 0;
  // Rebalance-engine counters for the shared fabric (one network, so one
  // snapshot covering every job).
  net::RebalanceStats rebalance;
  // Whole bytes each fabric link carried over the run, indexed by LinkId.
  std::vector<std::int64_t> link_bytes;
};

// Places, interleaves and runs every job to completion. Aborts if the jobs
// exceed fabric capacity or any job misses the horizon. Per-job ClusterConfig
// topology/bandwidth fields are overridden by `config.topology`; the fabric's
// TCP cost model comes from the first job.
MultiJobResult run_multi_job(const MultiJobConfig& config);

}  // namespace prophet::cluster
