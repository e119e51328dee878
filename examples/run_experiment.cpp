// Unified experiment runner: any model x strategy x architecture x network
// configuration from the command line, with optional trace export and
// network-dynamics / fault injection.
//
//   ./build/examples/run_experiment --model resnet50 --batch 64
//       --workers 3 --gbps 2 --strategy prophet --arch ps --iterations 40
//   ./build/examples/run_experiment --arch allreduce --strategy mg-wfbp
//   ./build/examples/run_experiment --strategy prophet --trace run.trace.json
//   ./build/examples/run_experiment --dynamics fluctuate:0.4:2 --iterations 60
//   ./build/examples/run_experiment --outage 20:5:1 --straggler 0:1.5:30
//   ./build/examples/run_experiment --topology leaf-spine:2:4 --oversub 4
//       --jobs 2 --placement network-aware --interleave cassini
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "allreduce/cluster.hpp"
#include "cluster/multi_job.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "net/dynamics.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/trace_export.hpp"

namespace {

std::string strategy_list() {
  std::string out;
  for (const auto& name : prophet::ps::StrategyConfig::known_names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

void usage() {
  std::printf(
      "run_experiment — simulate one DDNN training configuration\n"
      "\nmodel & training:\n"
      "  --model NAME       resnet18|resnet50|resnet152|inception_v3|vgg19|\n"
      "                     alexnet|mobilenet_v1|bert_base|toy_cnn (default resnet50)\n"
      "  --batch N          mini-batch per worker (default 64)\n"
      "  --workers N        worker count (default 3)\n"
      "  --iterations N     training iterations (default 40)\n"
      "  --seed N           simulation seed (default 42)\n"
      "  --asp              asynchronous parallel updates (PS only)\n"
      "\nstrategy & architecture:\n"
      "  --strategy NAME    %s\n"
      "                     (default prophet)\n"
      "  --arch NAME        ps|allreduce (default ps)\n"
      "  --profile-iters N  Prophet profiling length (default 10)\n"
      "  --trace PATH       write a Chrome trace of the run (PS only)\n"
      "\nnetwork & topology:\n"
      "  --gbps X           worker/host NIC rate in Gbit/s (default 3)\n"
      "  --ps-gbps X        PS NIC rate (default 10; star topology only)\n"
      "  --topology SPEC    star | leaf-spine[:RACKS[:HOSTS_PER_RACK]]\n"
      "                     (default star; leaf-spine defaults to 2 racks x 4,\n"
      "                     at most 65536 racks, 65536 hosts per rack and\n"
      "                     1048576 hosts)\n"
      "  --oversub X        leaf-spine oversubscription ratio (default 4;\n"
      "                     leaf-spine only)\n"
      "\nsharded parameter server (PS only):\n"
      "  --ps-shards N      stripe the key space over N PS hosts (key k on\n"
      "                     shard k%%N); each shard is an independent failure\n"
      "                     domain with its own checkpoints (default 1)\n"
      "\nmulti-job cluster scheduling (PS only):\n"
      "  --jobs N           run N copies of the configured job through one\n"
      "                     event loop on the shared fabric (default 1)\n"
      "  --placement NAME   fifo-stripe|network-aware (default network-aware)\n"
      "  --interleave NAME  none|cassini (default cassini)\n"
      "\nnetwork dynamics & fault injection (PS only):\n"
      "  --dynamics SPEC    none | fluctuate:AMP[:PERIOD_S] | step:T_S:FACTOR[:WORKER]\n"
      "                     | trace:PATH  — scripted/random bandwidth timeline\n"
      "  --outage SPEC      T_S:DUR_S[:WORKER]  — transient link outage\n"
      "                     (all workers when WORKER is omitted)\n"
      "  --straggler SPEC   WORKER:FACTOR[:T_S]  — slow one worker's compute\n"
      "  --ps-degrade SPEC  FACTOR[:T_S]  — scale the PS update CPU cost\n"
      "\ncrash & reliable-transport faults (PS only, BSP only):\n"
      "  --worker-crash SPEC T_S:DUR_S:WORKER  — kill one worker, restart it\n"
      "                     DUR_S later\n"
      "  --ps-crash SPEC    T_S:DUR_S[:shard:K]  — kill the PS (or only its\n"
      "                     shard K); failover restores the last checkpoint\n"
      "                     DUR_S later, rolling back only the crashed\n"
      "                     shard's keys while survivors keep serving\n"
      "  --checkpoint-s X   PS checkpoint period in seconds (default 2)\n"
      "  --loss SPEC        RATE[:T_S]  — transport loss probability per\n"
      "                     attempt, from T_S on (default from the start)\n"
      "  --retry-budget N   retries per transfer before aborting (default 16)\n",
      strategy_list().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prophet;

  const auto flags = Flags::parse(argc, argv);
  if (!flags.has_value() || flags->get("help", false)) {
    usage();
    return flags.has_value() ? 0 : 1;
  }

  const std::string strategy_name = flags->get("strategy", std::string{"prophet"});
  const auto strategy = ps::StrategyConfig::from_name(strategy_name);
  if (!strategy.has_value()) {
    std::fprintf(stderr, "unknown --strategy '%s' (want %s)\n\n",
                 strategy_name.c_str(), strategy_list().c_str());
    usage();
    return 1;
  }

  ps::ClusterConfig cfg;
  cfg.model = dnn::model_by_name(flags->get("model", std::string{"resnet50"}));
  const std::size_t batch = flags->get_count("batch", 64);
  PROPHET_CHECK_MSG(batch <= static_cast<std::size_t>(std::numeric_limits<int>::max()),
                    "--batch is too large");
  cfg.batch = static_cast<int>(batch);
  cfg.num_workers = flags->get_count("workers", 3);
  // --gbps is the worker NIC rate on a star and every host's on a
  // leaf-spine; --ps-gbps applies to the star only.
  const Bandwidth host_bw = Bandwidth::gbps(flags->get("gbps", 3.0));
  cfg.topology =
      net::TopologySpec::star(host_bw, Bandwidth::gbps(flags->get("ps-gbps", 10.0)));
  if (flags->has("topology")) {
    std::string topo_error;
    const auto spec = net::TopologySpec::from_cli(
        flags->get("topology", std::string{"star"}), &topo_error);
    if (!spec.has_value()) {
      std::fprintf(stderr, "%s\n", topo_error.c_str());
      return 1;
    }
    if (spec->kind == net::TopologySpec::Kind::kLeafSpine) {
      cfg.topology = *spec;
      cfg.topology.host_bandwidth = host_bw;
      cfg.topology.oversubscription = flags->get("oversub", 4.0);
    }
  }
  // A flag the fabric would ignore is refused, not dropped.
  const bool leaf_spine = cfg.topology.kind == net::TopologySpec::Kind::kLeafSpine;
  if (flags->has("oversub") && !leaf_spine) {
    std::fprintf(stderr, "--oversub only applies to a leaf-spine --topology\n");
    return 1;
  }
  if (flags->has("ps-gbps") && leaf_spine) {
    std::fprintf(stderr,
                 "--ps-gbps only applies to the star topology; every leaf-spine "
                 "host runs at --gbps\n");
    return 1;
  }
  cfg.ps_shards = flags->get_count("ps-shards", 1);
  cfg.iterations = flags->get_count("iterations", 40);
  cfg.seed = static_cast<std::uint64_t>(flags->get("seed", std::int64_t{42}));
  cfg.strategy = *strategy;
  cfg.strategy.prophet_config.profile_iterations = flags->get_count("profile-iters", 10);
  if (flags->get("asp", false)) cfg.sync = ps::SyncMode::kAsp;

  // Dynamics timeline: --dynamics builds the base plan, the targeted fault
  // flags append to it, and the merged plan is re-sorted before the run.
  std::string dyn_error;
  auto plan = net::DynamicsPlan::from_spec(
      flags->get("dynamics", std::string{"none"}), cfg.seed, cfg.metrics_horizon,
      cfg.num_workers, &dyn_error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  if (flags->has("outage") &&
      !plan->add_outage_spec(flags->get("outage", std::string{}), &dyn_error)) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  if (flags->has("straggler") &&
      !plan->add_straggler_spec(flags->get("straggler", std::string{}), &dyn_error)) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  if (flags->has("ps-degrade") &&
      !plan->add_ps_degrade_spec(flags->get("ps-degrade", std::string{}),
                                 &dyn_error)) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  if (flags->has("worker-crash") &&
      !plan->add_worker_crash_spec(flags->get("worker-crash", std::string{}),
                                   &dyn_error)) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  if (flags->has("ps-crash") &&
      !plan->add_ps_crash_spec(flags->get("ps-crash", std::string{}), &dyn_error)) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  if (flags->has("loss") &&
      !plan->add_loss_spec(flags->get("loss", std::string{}), &dyn_error)) {
    std::fprintf(stderr, "%s\n", dyn_error.c_str());
    return 1;
  }
  plan->sort();
  cfg.dynamics = std::move(*plan);
  cfg.checkpoint_period = Duration::from_seconds(flags->get("checkpoint-s", 2.0));
  cfg.reliability.retry_budget = flags->get_count("retry-budget", 16);

  const std::string arch = flags->get("arch", std::string{"ps"});
  std::printf("%s | %s | %zu workers | %s | batch %d | %zu iterations",
              arch.c_str(), cfg.model.name().c_str(), cfg.num_workers,
              format_bandwidth(host_bw).c_str(), cfg.batch,
              cfg.iterations);
  if (!cfg.dynamics.empty()) {
    std::printf(" | %zu dynamics events", cfg.dynamics.events.size());
  }
  std::printf("\n");

  if (arch == "allreduce") {
    for (const char* ps_only : {"ps-gbps", "ps-shards", "asp", "jobs", "placement",
                                "interleave", "trace", "checkpoint-s", "retry-budget"}) {
      if (flags->has(ps_only)) {
        std::fprintf(stderr, "--%s only applies to --arch ps; the allreduce ring "
                     "would ignore it\n", ps_only);
        return 1;
      }
    }
    if (!cfg.dynamics.empty()) {
      std::fprintf(stderr,
                   "dynamics/fault flags only apply to --arch ps; the "
                   "allreduce ring cannot run them\n");
      return 1;
    }
    const auto result = ar::run_allreduce(cfg);
    std::printf("[%s/ring] rate %.2f samples/s/worker, GPU utilization %.1f%%\n",
                strategy_name.c_str(), result.mean_rate(),
                100.0 * result.mean_utilization());
    return 0;
  }
  if (arch != "ps") {
    std::fprintf(stderr, "unknown --arch '%s' (want ps|allreduce)\n", arch.c_str());
    return 1;
  }

  const std::size_t jobs = flags->get_count("jobs", 1);
  if (jobs <= 1 && (flags->has("placement") || flags->has("interleave"))) {
    std::fprintf(stderr, "--placement and --interleave only apply with --jobs N > 1\n");
    return 1;
  }
  if (jobs > 1) {
    const std::string placement_name =
        flags->get("placement", std::string{"network-aware"});
    const auto placement = cluster::placement_from_name(placement_name);
    if (!placement.has_value()) {
      std::fprintf(stderr,
                   "unknown --placement '%s' (want fifo-stripe|network-aware)\n",
                   placement_name.c_str());
      return 1;
    }
    const std::string interleave_name =
        flags->get("interleave", std::string{"cassini"});
    const auto interleave = cluster::interleave_from_name(interleave_name);
    if (!interleave.has_value()) {
      std::fprintf(stderr, "unknown --interleave '%s' (want none|cassini)\n",
                   interleave_name.c_str());
      return 1;
    }
    cluster::MultiJobConfig mcfg;
    mcfg.topology = cfg.topology;
    mcfg.placement = *placement;
    mcfg.interleave = *interleave;
    for (std::size_t j = 0; j < jobs; ++j) {
      cluster::JobSpec job;
      job.name = "job" + std::to_string(j);
      job.config = cfg;
      job.config.seed = cfg.seed + j;  // decorrelate per-job jitter
      mcfg.jobs.push_back(std::move(job));
    }
    const cluster::MultiJobResult mres = cluster::run_multi_job(mcfg);
    std::printf("[%s/ps x%zu jobs] %s placement, %s interleave\n",
                strategy_name.c_str(), jobs, cluster::placement_name(*placement),
                cluster::interleave_name(*interleave));
    for (const auto& job : mres.jobs) {
      std::printf(
          "  %s: start +%.1f ms, finished at %.1f ms, rate %.2f samples/s/worker\n",
          job.name.c_str(), job.start_offset.to_seconds() * 1e3,
          job.finish_time.to_seconds() * 1e3, job.result.mean_rate());
    }
    std::printf("makespan %.1f ms, spine traffic %.1f MiB\n",
                mres.makespan.to_seconds() * 1e3,
                static_cast<double>(mres.spine_bytes) / (1024.0 * 1024.0));
    return 0;
  }

  const auto result = ps::run_cluster(cfg);
  std::printf("[%s/ps] rate %.2f samples/s/worker, GPU utilization %.1f%%\n",
              strategy_name.c_str(), result.mean_rate(),
              100.0 * result.mean_utilization());
  const auto waits = result.workers[0].transfers.overall(
      result.measure_first, result.measure_last, sched::TaskKind::kPush);
  std::printf("mean gradient wait %.2f ms, mean transfer %.2f ms (%zu pushes)\n",
              waits.mean_wait_ms, waits.mean_transfer_ms, waits.count);
  if (result.workers[0].prophet_replans > 0) {
    std::printf("Prophet re-planned %zu times on monitored bandwidth drift\n",
                result.workers[0].prophet_replans);
  }
  std::size_t retries = 0;
  std::size_t crash_events = 0;
  for (const auto& w : result.workers) {
    for (const auto& fault : w.transfers.faults()) {
      if (fault.kind == metrics::FaultKind::kTransportRetry) {
        ++retries;
      } else {
        ++crash_events;
      }
    }
  }
  if (retries + crash_events > 0) {
    std::printf(
        "faults survived: %zu transport retries, %zu crash/recovery events "
        "(%zu BSP invariant checks clean)\n",
        retries, crash_events, result.audit_checks);
  }
  if (flags->has("trace")) {
    const std::string path = flags->get("trace", std::string{"run.trace.json"});
    ps::export_chrome_trace(result, path);
    std::printf("Chrome trace written to %s\n", path.c_str());
  }
  return 0;
}
