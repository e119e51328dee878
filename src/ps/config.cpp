#include "ps/config.hpp"

#include "common/check.hpp"

namespace prophet::ps {

void ClusterConfig::validate() const {
  PROPHET_CHECK_MSG(num_workers > 0, "ClusterConfig: num_workers must be > 0");
  PROPHET_CHECK_MSG(iterations >= 2, "ClusterConfig: need at least 2 iterations");
  PROPHET_CHECK_MSG(batch > 0, "ClusterConfig: batch must be > 0");
  PROPHET_CHECK_MSG(model.tensor_count() > 0, "ClusterConfig: model has no tensors");
  PROPHET_CHECK_MSG(ps_shards >= 1,
                    "ClusterConfig::ps_shards: must be >= 1 — zero shards "
                    "would leave every key unowned");
  PROPHET_CHECK_MSG(ps_shards <= model.tensor_count(),
                    "ClusterConfig::ps_shards: more PS shards than model "
                    "tensors — shards beyond tensor_count() would own no "
                    "keys; lower --ps-shards");
  PROPHET_CHECK_MSG(jitter_sigma >= 0.0, "ClusterConfig: jitter_sigma must be >= 0");
  topology.validate();
  if (topology.kind == net::TopologySpec::Kind::kStar) {
    PROPHET_CHECK_MSG(worker_bandwidth_override.size() <= num_workers,
                      "ClusterConfig: worker_bandwidth_override longer than num_workers");
    for (const Bandwidth& bw : worker_bandwidth_override) {
      PROPHET_CHECK_MSG(!bw.is_zero(), "ClusterConfig: worker_bandwidth_override "
                                       "entries must be positive");
    }
  } else {
    // An explicit non-star fabric has uniform host NICs; per-worker override
    // entries would silently lose against it, so the ambiguity is rejected.
    PROPHET_CHECK_MSG(worker_bandwidth_override.empty(),
                      "ClusterConfig: worker_bandwidth_override is ambiguous "
                      "with a non-star TopologySpec; set host_bandwidth on the "
                      "topology instead");
    // The fabric must seat every worker plus one host per PS shard.
    PROPHET_CHECK_MSG(topology.host_capacity() >= num_workers + ps_shards,
                      "ClusterConfig: topology rack capacity cannot hold "
                      "num_workers + ps_shards PS hosts");
  }
  PROPHET_CHECK_MSG(update_bytes_per_sec > 0.0,
                    "ClusterConfig: update_bytes_per_sec must be > 0");
  PROPHET_CHECK_MSG(update_fixed >= Duration::zero(),
                    "ClusterConfig: update_fixed must be >= 0");
  PROPHET_CHECK_MSG(monitor.sample_period > Duration::zero(),
                    "ClusterConfig: monitor sample_period must be > 0");
  PROPHET_CHECK_MSG(metrics_bin > Duration::zero(),
                    "ClusterConfig: metrics_bin must be > 0");
  PROPHET_CHECK_MSG(metrics_horizon > metrics_bin,
                    "ClusterConfig: metrics_horizon must exceed metrics_bin");
  dynamics.validate(num_workers, ps_shards);
  reliability.validate();
  // A retry budget of zero cannot survive a single drop: the transfer fails
  // permanently and the BSP round never completes.
  PROPHET_CHECK_MSG(
      reliability.retry_budget > 0 ||
          (reliability.loss_rate == 0.0 && !dynamics.has_loss()),
      "ClusterConfig::reliability.retry_budget: transport loss is enabled "
      "(reliability.loss_rate > 0 or a dynamics loss_rate event) but "
      "retry_budget == 0, so the first dropped transfer would hang forever; "
      "give the channel a positive retry budget (see ROADMAP 'crash-recovery "
      "and reliable transport', docs/ROBUSTNESS.md)");
  // Crash recovery replays BSP rounds; under ASP there is no round to roll
  // back to, so fault plans with crashes are rejected up front.
  PROPHET_CHECK_MSG(
      sync == SyncMode::kBsp ||
          (!dynamics.has_worker_crash() && !dynamics.has_ps_crash()),
      "ClusterConfig::dynamics: crash/recovery faults require sync == "
      "SyncMode::kBsp — ASP has no BSP round boundary to replay from "
      "(lifting this is the ROADMAP item 'Async / stale-synchronous "
      "parallel mode')");
  PROPHET_CHECK_MSG(!dynamics.has_ps_crash() ||
                        checkpoint_period > Duration::zero(),
                    "ClusterConfig: ps_crash failover needs a positive "
                    "checkpoint_period to restore from");
}

}  // namespace prophet::ps
