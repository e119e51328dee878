// The benchmark's three workloads, one driver call per cell, and the checks
// and fingerprint applied to every call.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "allreduce/cluster.hpp"
#include "bench.hpp"
#include "dnn/model_zoo.hpp"
#include "net/dynamics.hpp"

namespace prophet::perfbench {
namespace {

// Fingerprint hash: FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::string check_rate(const std::string& label, double rate) {
  if (std::isfinite(rate) && rate > 0.0) return {};
  return label + ": rate " + std::to_string(rate) + " is not a positive number";
}

ps::StrategyConfig strategy(const std::string& name,
                            std::size_t profile_iterations) {
  ps::StrategyConfig s = *ps::StrategyConfig::from_name(name);
  s.prophet_config.profile_iterations = profile_iterations;
  return s;
}

ps::ClusterConfig star_job(const dnn::ModelSpec& model, int batch,
                           std::size_t workers, Bandwidth worker_bw,
                           std::size_t iterations, std::uint64_t seed) {
  ps::ClusterConfig cfg;
  cfg.model = model;
  cfg.batch = batch;
  cfg.num_workers = workers;
  cfg.iterations = iterations;
  cfg.seed = seed;
  cfg.topology = net::TopologySpec::star(worker_bw, Bandwidth::gbps(10));
  return cfg;
}

Cell ps_cell(std::string label, ps::ClusterConfig cfg, const std::string& key,
             const std::string& strategy_name, std::size_t profile_iterations) {
  cfg.strategy = strategy(strategy_name, profile_iterations);
  Cell cell;
  cell.label = std::move(label);
  cell.kind = CellKind::kPs;
  cell.config = std::move(cfg);
  cell.rate_key = key;
  return cell;
}

Cell ring_cell(std::string label, ps::ClusterConfig cfg,
               std::size_t profile_iterations) {
  cfg.strategy = strategy("prophet", profile_iterations);
  Cell cell;
  cell.label = std::move(label);
  cell.kind = CellKind::kRing;
  cell.config = std::move(cfg);
  cell.rate_key = "ring_prophet";
  return cell;
}

std::string gbps_label(double gbps) {
  return std::to_string(static_cast<int>(gbps)) + "gbps";
}

// The paper's largest cluster (1 PS at 10 Gbps + 7 workers) on its two
// contrasting models, at 1/3/10 Gbps worker NICs, every strategy; ResNet50
// at 1 Gbps again under seeded bandwidth fluctuation, so Prophet re-plans
// (at 3 Gbps the shared PS NIC stays the bottleneck through the dips and
// Prophet rarely re-plans); and ring all-reduce Prophet at each ResNet50
// bandwidth.
Workload paper_cells(std::uint64_t seed) {
  constexpr std::size_t kIterations = 60;
  constexpr std::size_t kProfile = 8;
  Workload wl;
  wl.threads = 2;
  const dnn::ModelSpec resnet50 = dnn::resnet50();
  const dnn::ModelSpec vgg19 = dnn::vgg19();
  const std::vector<std::pair<const dnn::ModelSpec*, int>> models = {
      {&resnet50, 64}, {&vgg19, 32}};
  for (const auto& [model, batch] : models) {
    for (const double gbps : {1.0, 3.0, 10.0}) {
      for (const auto& [key, name] : ps_strategies()) {
        wl.cells.push_back(ps_cell(
            model->name() + "_b" + std::to_string(batch) + "." + gbps_label(gbps) +
                "." + key,
            star_job(*model, batch, 7, Bandwidth::gbps(gbps), kIterations, seed),
            key, name, kProfile));
      }
    }
  }
  for (const auto& [key, name] : ps_strategies()) {
    ps::ClusterConfig cfg =
        star_job(resnet50, 64, 7, Bandwidth::gbps(1), kIterations, seed);
    // The default 5 s monitor sampling aliases a 4 s fluctuation.
    cfg.monitor.sample_period = Duration::millis(500);
    cfg.dynamics = net::DynamicsPlan::fluctuation(
        seed ^ 0x9e3779b97f4a7c15ULL, /*amplitude=*/0.5, Duration::seconds(4),
        /*horizon=*/Duration::seconds(300), cfg.num_workers);
    wl.cells.push_back(ps_cell("resnet50_b64.1gbps.fluctuating." + key,
                               std::move(cfg), key, name, kProfile));
  }
  for (const double gbps : {1.0, 3.0, 10.0}) {
    wl.cells.push_back(ring_cell(
        "ring.resnet50_b64." + gbps_label(gbps),
        star_job(resnet50, 64, 8, Bandwidth::gbps(gbps), kIterations, seed),
        kProfile));
  }
  return wl;
}

// 1024 workers push and pull toy_cnn through one 10 Gbps PS with 1 Gbps
// NICs, once per strategy; plus an 8-worker ring on the same model and NIC.
Workload star_incast(std::uint64_t seed) {
  constexpr std::size_t kWorkers = 1024;
  constexpr std::size_t kIterations = 6;
  // One profiled iteration keeps Prophet's warmup (profile + 3) inside six.
  constexpr std::size_t kProfile = 1;
  Workload wl;
  const dnn::ModelSpec model = dnn::toy_cnn();
  for (const auto& [key, name] : ps_strategies()) {
    wl.cells.push_back(ps_cell(
        "toy_cnn_b32.w" + std::to_string(kWorkers) + "." + key,
        star_job(model, 32, kWorkers, Bandwidth::gbps(1), kIterations, seed),
        key, name, kProfile));
  }
  wl.cells.push_back(ring_cell(
      "ring.toy_cnn_b32.1gbps",
      star_job(model, 32, 8, Bandwidth::gbps(1), kIterations, seed), kProfile));
  return wl;
}

// Four 8-worker ResNet50 jobs, one per strategy, each with two PS shards and
// 0.1% transport loss, striped over a 4-rack 4:1 leaf-spine with CASSINI
// start interleaving; plus an 8-worker ring at the same host rate.
Workload spine_multijob(std::uint64_t seed) {
  constexpr std::size_t kIterations = 30;
  constexpr std::size_t kProfile = 8;
  Workload wl;
  const dnn::ModelSpec model = dnn::resnet50();
  Cell multi;
  multi.label = "spine.4x8.resnet50_b64";
  multi.kind = CellKind::kMultiJob;
  multi.multi.topology = net::TopologySpec::leaf_spine(
      /*racks=*/4, /*hosts_per_rack=*/10, Bandwidth::gbps(10),
      /*oversubscription=*/4.0);
  multi.multi.placement = cluster::PlacementPolicy::kFifoStripe;
  multi.multi.interleave = cluster::InterleavePolicy::kCassini;
  std::uint64_t job_seed = seed;
  for (const auto& [key, name] : ps_strategies()) {
    cluster::JobSpec job;
    job.name = key;
    job.config.model = model;
    job.config.batch = 64;
    job.config.num_workers = 8;
    job.config.iterations = kIterations;
    job.config.seed = job_seed++;
    job.config.ps_shards = 2;
    job.config.reliability.loss_rate = 0.001;
    job.config.strategy = strategy(name, kProfile);
    multi.multi.jobs.push_back(std::move(job));
  }
  wl.cells.push_back(std::move(multi));
  wl.cells.push_back(ring_cell(
      "ring.resnet50_b64.10gbps",
      star_job(model, 64, 8, Bandwidth::gbps(10), kIterations, seed), kProfile));
  return wl;
}

// Checks one job's result and folds it into the fingerprint.
void fold_job(const ps::ClusterResult& result, const ps::ClusterConfig& cfg,
              const std::string& label, Fnv& fnv, CallResult& out) {
  fnv.add(static_cast<std::uint64_t>(result.simulated_time.count_nanos()));
  fnv.add(static_cast<std::uint64_t>(result.workers.size()));
  for (const auto& w : result.workers) {
    fnv.add(static_cast<std::uint64_t>(w.iterations_completed));
    fnv.add(w.rate_samples_per_sec);
    out.worker_iterations += w.iterations_completed;
    if (out.error.empty() && w.iterations_completed != cfg.iterations) {
      out.error = label + ": worker " + std::to_string(w.id) + " completed " +
                  std::to_string(w.iterations_completed) + " of " +
                  std::to_string(cfg.iterations) + " iterations";
    }
  }
  if (out.error.empty() && result.workers.size() != cfg.num_workers) {
    out.error = label + ": " + std::to_string(result.workers.size()) +
                " worker results for " + std::to_string(cfg.num_workers) +
                " workers";
  }
  if (out.error.empty() && result.audit_checks == 0) {
    out.error = label + ": the BSP audit ran no checks";
  }
  const double rate = result.workers.empty() ? 0.0 : result.mean_rate();
  if (out.error.empty()) out.error = check_rate(label, rate);
}

}  // namespace

const std::vector<std::string>& rate_keys() {
  static const std::vector<std::string> keys = {"prophet", "bytescheduler", "p3",
                                                "fifo", "ring_prophet"};
  return keys;
}

const std::vector<std::pair<std::string, std::string>>& ps_strategies() {
  static const std::vector<std::pair<std::string, std::string>> s = {
      {"prophet", "prophet"},
      {"bytescheduler", "bytescheduler-autotune"},
      {"p3", "p3"},
      {"fifo", "fifo"}};
  return s;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_cells", "star_incast",
                                                 "spine_multijob"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_cells") return paper_cells(seed);
  if (name == "star_incast") return star_incast(seed);
  if (name == "spine_multijob") return spine_multijob(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

CallResult summarize_ps(const ps::ClusterResult& result,
                        const ps::ClusterConfig& config,
                        const std::string& rate_key) {
  CallResult out;
  Fnv fnv;
  fnv.add(result.events_fired);
  fold_job(result, config, rate_key, fnv, out);
  out.fingerprint = fnv.h;
  out.makespan_s = result.simulated_time.to_seconds();
  out.rates.emplace_back(rate_key, result.workers.empty() ? 0.0 : result.mean_rate());
  return out;
}

CallResult summarize_multi(const cluster::MultiJobResult& result,
                           const cluster::MultiJobConfig& config) {
  CallResult out;
  Fnv fnv;
  fnv.add(result.events_fired);
  fnv.add(static_cast<std::uint64_t>(result.makespan.count_nanos()));
  fnv.add(static_cast<std::uint64_t>(result.spine_bytes));
  if (result.jobs.size() != config.jobs.size()) {
    out.error = "multi-job: " + std::to_string(result.jobs.size()) +
                " job results for " + std::to_string(config.jobs.size()) + " jobs";
  }
  for (std::size_t j = 0; j < result.jobs.size() && j < config.jobs.size(); ++j) {
    const auto& job = result.jobs[j];
    fold_job(job.result, config.jobs[j].config, job.name, fnv, out);
    out.rates.emplace_back(job.name, job.result.workers.empty()
                                         ? 0.0
                                         : job.result.mean_rate());
  }
  out.fingerprint = fnv.h;
  out.makespan_s = result.makespan.to_seconds();
  return out;
}

CallResult run_cell(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::kPs:
      return summarize_ps(ps::run_cluster(cell.config), cell.config, cell.rate_key);
    case CellKind::kMultiJob:
      return summarize_multi(cluster::run_multi_job(cell.multi), cell.multi);
    case CellKind::kRing: {
      const ar::AllReduceResult result = ar::run_allreduce(cell.config);
      CallResult out;
      Fnv fnv;
      fnv.add(static_cast<std::uint64_t>(result.simulated_time.count_nanos()));
      for (const auto& w : result.workers) {
        fnv.add(static_cast<std::uint64_t>(w.iterations_completed));
        fnv.add(w.rate_samples_per_sec);
        out.worker_iterations += w.iterations_completed;
        if (out.error.empty() && w.iterations_completed != cell.config.iterations) {
          out.error = cell.label + ": a ring worker missed its iteration count";
        }
      }
      const double rate = result.workers.empty() ? 0.0 : result.mean_rate();
      if (out.error.empty()) out.error = check_rate(cell.label, rate);
      out.fingerprint = fnv.h;
      out.makespan_s = result.simulated_time.to_seconds();
      out.rates.emplace_back(cell.rate_key, rate);
      return out;
    }
  }
  return {};
}

namespace {

net::TcpCostModel cost_of(const Cell& cell) {
  return net::TcpCostModel{cell.kind == CellKind::kMultiJob
                               ? cell.multi.jobs.front().config.tcp
                               : cell.config.tcp};
}

net::RebalanceMode mode_of(const Cell& cell) {
  return cell.kind == CellKind::kMultiJob ? cell.multi.rate_rebalance
                                          : cell.config.rate_rebalance;
}

net::TopologySpec spec_of(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::kPs: return cell.config.resolved_topology();
    case CellKind::kMultiJob: return cell.multi.topology;
    case CellKind::kRing: break;
  }
  // The ring driver adds bare nodes; an empty star adds nothing.
  return net::TopologySpec::star(Bandwidth::gbps(10), Bandwidth::gbps(10));
}

}  // namespace

Runtime::Runtime(const Cell& cell)
    : network{sim, cost_of(cell), mode_of(cell)}, topology{network, spec_of(cell)} {
  switch (cell.kind) {
    case CellKind::kPs: {
      cell.config.validate();
      network.set_verify_rates(cell.config.verify_rates);
      horizon = cell.config.metrics_horizon;
      jobs.push_back(std::make_unique<ps::JobRuntime>(sim, network, topology,
                                                      cell.config));
      break;
    }
    case CellKind::kMultiJob: {
      const cluster::MultiJobConfig& mj = cell.multi;
      network.set_verify_rates(mj.verify_rates);
      horizon = mj.horizon;
      placements = cluster::place_jobs(mj.topology, mj.jobs, mj.placement);
      offsets = cluster::interleave_offsets(mj.topology, mj.jobs, placements,
                                            mj.interleave);
      for (std::size_t j = 0; j < mj.jobs.size(); ++j) {
        ps::ClusterConfig cfg = mj.jobs[j].config;
        cfg.topology = mj.topology;
        cfg.worker_bandwidth_override.clear();
        cfg.validate();
        ps::JobOptions opts;
        opts.name_prefix = mj.jobs[j].name + ".";
        opts.start_offset = offsets[j];
        opts.ps_rack = placements[j].ps_rack;
        opts.worker_racks = placements[j].worker_racks;
        jobs.push_back(std::make_unique<ps::JobRuntime>(
            sim, network, topology, std::move(cfg), std::move(opts)));
      }
      break;
    }
    case CellKind::kRing: {
      network.set_verify_rates(cell.config.verify_rates);
      horizon = cell.config.metrics_horizon;
      for (std::size_t w = 0; w < cell.config.num_workers; ++w) {
        const Bandwidth bw = cell.config.bandwidth_of_worker(w);
        ring_nodes.push_back(network.add_node("worker" + std::to_string(w), bw, bw));
      }
      break;
    }
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace prophet::perfbench
