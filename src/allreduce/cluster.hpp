// Driver for all-reduce training runs: W workers in a ring, a collective
// Coordinator running one of the communication strategies, and the same
// result type the PS drivers return — so the two dominant DDNN
// architectures can be compared under identical workloads.
#pragma once

#include <optional>

#include "ps/cluster.hpp"
#include "ps/config.hpp"

namespace prophet::ar {

// The ring reports through the PS result type: per-worker rate, GPU
// utilization, iteration count and compute series over the same default
// window. Transfer logs, Prophet counters and audit checks stay empty and
// the NIC throughput series stay zero.
using AllReduceResult = ps::ClusterResult;

// Reuses the PS ClusterConfig (model / batch / topology / strategy /
// iterations); the ring members are placed on cfg.topology like PS workers.
// PS-specific fields (the PS NIC rate, ps_shards, update costs) are ignored.
// Aborts on an invalid config, on fewer than two workers, on a non-empty
// dynamics plan, which the ring cannot apply, and on ASP: the ring gates
// every layer on a completed reduction, so it is BSP by construction.
AllReduceResult run_allreduce(const ps::ClusterConfig& config,
                              std::optional<std::size_t> measure_first = {});

}  // namespace prophet::ar
