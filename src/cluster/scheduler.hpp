// Cluster-level scheduling policies for many training jobs sharing one
// leaf-spine fabric — the cross-job layer the ROADMAP's top open item asks
// for, built on the observation that Prophet-style *predictable* per-job
// communication is exactly the input a cross-job scheduler needs:
//
//   * placement  — which rack each job's PS and workers land in. Naive FIFO
//     striping spreads every job across racks (maximal spine traffic); the
//     network-aware policy packs each job into the fewest racks (Dally-style
//     locality), taking cross-rack gradient traffic off the oversubscribed
//     spine entirely when a job fits in one rack.
//   * interleaving — CASSINI-style start-offset assignment for jobs that
//     span racks anyway: from each job's analytically predicted
//     communication-phase duration (IterationModel nominal timing + model
//     bytes over the shared-link rate), stagger starts so BSP-self-clocked
//     comm phases tile the shared uplinks instead of colliding.
//
// Both policies are pure functions of specs and placements: they decide,
// the multi-job driver executes.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "net/topology.hpp"
#include "ps/config.hpp"

namespace prophet::cluster {

enum class PlacementPolicy {
  kFifoStripe,    // submission order, hosts round-robined across racks
  kNetworkAware,  // best-fit: pack each job into the fewest racks
};

enum class InterleavePolicy {
  kNone,     // every job starts at t = 0
  kCassini,  // stagger starts by predicted communication-phase durations
};

[[nodiscard]] const char* placement_name(PlacementPolicy p);
[[nodiscard]] const char* interleave_name(InterleavePolicy p);
[[nodiscard]] std::optional<PlacementPolicy> placement_from_name(
    const std::string& name);
[[nodiscard]] std::optional<InterleavePolicy> interleave_from_name(
    const std::string& name);

// One job submitted to the shared fabric. The job's own topology and NIC
// overrides are ignored — the fabric is the driver's.
struct JobSpec {
  ps::ClusterConfig config;
  std::string name;  // defaults to "job<index>"
};

// Rack assignment for one job's hosts (empty / unset on a star fabric:
// placement is meaningless there).
struct Placement {
  std::optional<std::size_t> ps_rack;
  std::vector<std::size_t> worker_racks;

  // Workers placed in a different rack than the PS — each contributes
  // 2 x model bytes per iteration to the spine (push up + pull down).
  [[nodiscard]] std::size_t cross_rack_workers() const;
};

// Assigns every job's hosts to racks under `policy`. Aborts if the combined
// jobs exceed fabric capacity. Star fabrics yield empty placements.
std::vector<Placement> place_jobs(const net::TopologySpec& topology,
                                  const std::vector<JobSpec>& jobs,
                                  PlacementPolicy policy);

// Analytic per-iteration phase prediction for one placed job — the Prophet
// insight applied cross-job: nominal compute from the iteration model, comm
// from bytes over the narrowest link the job's gradient traffic crosses.
struct PhaseEstimate {
  Duration compute{};  // forward + backward, noise-free
  Duration comm{};     // communication phase at the predicted bottleneck
  Duration period{};   // compute + comm (no-overlap upper bound)
  std::int64_t spine_bytes_per_iter = 0;  // one direction, per iteration
};

PhaseEstimate estimate_phases(const net::TopologySpec& topology,
                              const ps::ClusterConfig& config,
                              const Placement& placement);

// Start offsets per job under `policy`. kCassini greedily staggers jobs
// with spine traffic by the accumulated predicted comm durations of the
// spine-sharing jobs before them (capped at one period: beyond that, BSP
// self-clocking has wrapped); jobs without spine traffic start at zero.
std::vector<Duration> interleave_offsets(const net::TopologySpec& topology,
                                         const std::vector<JobSpec>& jobs,
                                         const std::vector<Placement>& placements,
                                         InterleavePolicy policy);

}  // namespace prophet::cluster
