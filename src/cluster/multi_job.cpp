#include "cluster/multi_job.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "net/flow_network.hpp"
#include "ps/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace prophet::cluster {

MultiJobResult run_multi_job(const MultiJobConfig& config) {
  PROPHET_CHECK_MSG(!config.jobs.empty(), "run_multi_job: no jobs submitted");
  config.topology.validate();

  const std::vector<Placement> placements =
      place_jobs(config.topology, config.jobs, config.placement);
  const std::vector<Duration> offsets = interleave_offsets(
      config.topology, config.jobs, placements, config.interleave);

  sim::Simulator sim;
  const net::TcpCostModel cost{config.jobs.front().config.tcp};
  net::FlowNetwork network{sim, cost, config.rate_rebalance};
  network.set_verify_rates(config.verify_rates);
  net::BuiltTopology topology{network, config.topology};

  auto job_name = [&](std::size_t j) {
    return config.jobs[j].name.empty() ? "job" + std::to_string(j)
                                       : config.jobs[j].name;
  };
  std::vector<std::unique_ptr<ps::JobRuntime>> jobs;
  for (std::size_t j = 0; j < config.jobs.size(); ++j) {
    ps::ClusterConfig cfg = config.jobs[j].config;
    // The fabric is the driver's: the job's topology and overrides are
    // replaced so validate() and bandwidth_of_worker agree with it.
    cfg.topology = config.topology;
    cfg.worker_bandwidth_override.clear();
    cfg.validate();
    ps::JobOptions opts;
    opts.name_prefix = job_name(j) + ".";
    opts.start_offset = offsets[j];
    opts.ps_rack = placements[j].ps_rack;
    opts.worker_racks = placements[j].worker_racks;
    jobs.push_back(std::make_unique<ps::JobRuntime>(sim, network, topology,
                                                    std::move(cfg),
                                                    std::move(opts)));
  }
  // One event loop for everyone: a job that crosses its final iteration is
  // finalized on the spot while its residual flows drain alongside the
  // still-running jobs.
  ps::run_jobs(sim, jobs, TimePoint::origin() + config.horizon);

  MultiJobResult result;
  result.events_fired = sim.events_fired();
  result.spine_bytes = topology.spine_bytes();
  result.rebalance = network.rebalance_stats();
  for (net::LinkId l = 0; l < network.link_count(); ++l) {
    result.link_bytes.push_back(network.link_total_bytes(l));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobOutcome out;
    out.name = job_name(j);
    out.result = jobs[j]->collect({}, sim.events_fired());
    out.placement = placements[j];
    out.start_offset = offsets[j];
    out.finish_time = jobs[j]->finish_time();
    if (out.finish_time > result.makespan) result.makespan = out.finish_time;
    result.jobs.push_back(std::move(out));
  }
  return result;
}

}  // namespace prophet::cluster
