// Large-cluster engine scaling bench: the gate for the two scaling axes the
// ROADMAP asks for, recorded in bench_results/BENCH_scale.json so
// regressions are visible PR over PR.
//
//   1. Incremental max-min recomputation. Every cell (star PS incast at
//      64/256 workers; 2/4 packed jobs on a leaf-spine fabric) is simulated
//      twice — RebalanceMode::kFull (the original whole-network progressive
//      filling on every flow event) vs kIncremental (component-local
//      rebalance) — and the end-to-end wall-time ratio is the speedup. The
//      two arms assign bit-identical rates, so every cell with both arms
//      must replay the same simulation (`arms_identical`: final nanosecond,
//      event count, bytes on every link) — star and multi-job spine cells
//      alike; rate-level bit-identity is proved by
//      tests/test_incremental_rates.
//
//   2. The deterministic parallel sweep executor. A block of independent
//      seed runs executes through exec::run_sweep at 1 thread and at
//      hardware concurrency; the merged outputs (per-run fingerprints) must
//      be byte-identical and the wall-time ratio against ideal scaling is
//      recorded as `efficiency`.
//
// The bench fails only on correctness (a run that does not finish, a
// thread-count-dependent byte stream, or a cell whose incremental arm
// diverges from kFull on simulated time / events / link bytes); speedups are
// recorded, not asserted, so CI timing noise cannot flake the suite — the
// separate scale_ratchet tool compares speedups against the committed smoke
// baseline, where the full/incremental ratio is machine-paired. Each cell
// also records the engine's RebalanceStats counters (settlements per event,
// component walks, rate-group lifecycle) for both arms, so BENCH_scale.json
// shows *why* a speedup moved, not just that it did. Run with --smoke for
// the CI smoke (shrunk cells, separate output file, per-arm time budget);
// --big adds 1024-, 4096- and 16384-worker star cells to the full run (the
// two largest run the incremental arm only — the full arm's whole-network
// refills would take tens of minutes, which is the point of the rate-group
// engine).
//
// Usage: scale [--smoke] [--big] [--out PATH]
#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/multi_job.hpp"
#include "common/flags.hpp"
#include "dnn/model_zoo.hpp"
#include "exec/executor.hpp"
#include "ps/cluster.hpp"

namespace prophet::bench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Star fabric: one PS, `workers` hosts pushing/pulling toy_cnn through a
// 10 Gbps PS NIC — the incast regime where every arrival used to trigger a
// whole-network refill.
ps::ClusterConfig star_config(std::size_t workers, std::size_t iterations,
                              std::uint64_t seed, net::RebalanceMode mode) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = workers;
  cfg.batch = 32;
  cfg.iterations = iterations;
  cfg.seed = seed;
  cfg.worker_bandwidth = Bandwidth::gbps(1);
  cfg.ps_bandwidth = Bandwidth::gbps(10);
  cfg.strategy = ps::StrategyConfig::fifo();
  cfg.rate_rebalance = mode;
  cfg.metrics_horizon = Duration::seconds(3600);
  return cfg;
}

// Leaf-spine fabric: `jobs` independent toy_cnn jobs, each packed into its
// own rack by network-aware placement. Contention is per-job, so the
// contention graph splits into one component per job — the regime where
// component-local rebalance pays off most.
cluster::MultiJobConfig spine_config(std::size_t jobs,
                                     std::size_t workers_per_job,
                                     std::size_t iterations,
                                     net::RebalanceMode mode) {
  cluster::MultiJobConfig cfg;
  cfg.topology = net::TopologySpec::leaf_spine(
      /*racks=*/jobs, /*hosts_per_rack=*/workers_per_job + 1,
      Bandwidth::gbps(1), /*oversubscription=*/4.0);
  cfg.placement = cluster::PlacementPolicy::kNetworkAware;
  cfg.interleave = cluster::InterleavePolicy::kNone;
  cfg.rate_rebalance = mode;
  cfg.horizon = Duration::seconds(3600);
  for (std::size_t j = 0; j < jobs; ++j) {
    cluster::JobSpec job;
    job.name = "job" + std::to_string(j);
    job.config.model = dnn::toy_cnn();
    job.config.num_workers = workers_per_job;
    job.config.batch = 32;
    job.config.iterations = iterations;
    job.config.seed = 42 + j;
    job.config.strategy = ps::StrategyConfig::fifo();
    cfg.jobs.push_back(std::move(job));
  }
  return cfg;
}

struct RunStats {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  // Simulated clock at the end of the run: with bit-identical rates the two
  // rebalance modes must land on the same nanosecond.
  std::int64_t sim_ns = 0;
  // Whole bytes per fabric link: exact settlement makes these
  // mode-independent too.
  std::vector<std::int64_t> link_bytes;
  net::RebalanceStats rebalance;
  bool finished = false;
};

struct Cell {
  std::string label;
  std::size_t total_workers;
  // Skip the kFull arm (star_4096, star_16384: the whole-network refill arm
  // is O(n^2) per wave and would run for tens of minutes).
  bool incremental_only = false;
  std::function<RunStats(net::RebalanceMode)> run;
};

RunStats run_star(std::size_t workers, std::size_t iterations,
                  net::RebalanceMode mode) {
  const auto cfg = star_config(workers, iterations, 42, mode);
  const double t0 = now_ms();
  const auto result = ps::run_cluster(cfg, 1);
  RunStats stats;
  stats.wall_ms = now_ms() - t0;
  stats.events = result.events_fired;
  stats.sim_ns = result.simulated_time.count_nanos();
  stats.link_bytes = result.link_bytes;
  stats.rebalance = result.rebalance;
  stats.finished = true;
  for (const auto& w : result.workers) {
    if (w.iterations_completed != iterations) stats.finished = false;
  }
  return stats;
}

RunStats run_spine(std::size_t jobs, std::size_t workers_per_job,
                   std::size_t iterations, net::RebalanceMode mode) {
  const auto cfg = spine_config(jobs, workers_per_job, iterations, mode);
  const double t0 = now_ms();
  const auto result = cluster::run_multi_job(cfg);
  RunStats stats;
  stats.wall_ms = now_ms() - t0;
  stats.events = result.events_fired;
  stats.sim_ns = result.makespan.count_nanos();
  stats.link_bytes = result.link_bytes;
  stats.rebalance = result.rebalance;
  stats.finished = result.jobs.size() == jobs;
  for (const auto& job : result.jobs) {
    for (const auto& w : job.result.workers) {
      if (w.iterations_completed != iterations) stats.finished = false;
    }
  }
  return stats;
}

// FNV-1a over the observables a sweep cell reports; what must not depend on
// the executor's thread count.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace
}  // namespace prophet::bench

int main(int argc, char** argv) {
  using namespace prophet;
  using namespace prophet::bench;

  std::string error;
  const auto flags = Flags::parse(argc, argv, &error);
  if (!flags) {
    std::fprintf(stderr, "scale: %s\n", error.c_str());
    return 2;
  }
  const bool smoke = flags->get("smoke", false);
  const bool big = flags->get("big", false);
  const std::string out_path =
      flags->get("out", artifact_dir() + "/BENCH_scale.json");

  banner("scale",
         "engine scaling: incremental vs full rate rebalance, parallel sweep "
         "executor");

  // run_cluster's metrics need warmup + 2 iterations: the star cells pass an
  // explicit measure window, but multi-job collection uses the default
  // 3-iteration warmup, so spine cells need at least 5.
  const std::size_t iters = 3;
  const std::size_t spine_iters = 5;
  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"star_16", 16, /*incremental_only=*/false,
                     [&](net::RebalanceMode m) { return run_star(16, iters, m); }});
    // Ratchet anchor: big enough (~50-100 ms/arm) that the best-of-N
    // full/incremental ratio is stable against runner noise.
    cells.push_back({"star_64", 64, /*incremental_only=*/false,
                     [&](net::RebalanceMode m) { return run_star(64, iters, m); }});
    cells.push_back({"spine_2x8", 16, /*incremental_only=*/false,
                     [&](net::RebalanceMode m) {
                       return run_spine(2, 8, spine_iters, m);
                     }});
  } else {
    cells.push_back({"star_64", 64, /*incremental_only=*/false,
                     [&](net::RebalanceMode m) { return run_star(64, iters, m); }});
    cells.push_back({"star_256", 256, /*incremental_only=*/false,
                     [&](net::RebalanceMode m) { return run_star(256, iters, m); }});
    cells.push_back({"spine_2x64_128", 128,
                     /*incremental_only=*/false, [&](net::RebalanceMode m) {
                       return run_spine(2, 64, spine_iters, m);
                     }});
    // The 256-worker headline cell: 4 jobs x 64 workers, one rack each.
    cells.push_back({"spine_4x64_256", 256,
                     /*incremental_only=*/false, [&](net::RebalanceMode m) {
                       return run_spine(4, 64, spine_iters, m);
                     }});
    if (big) {
      cells.push_back({"star_1024", 1024,
                       /*incremental_only=*/false, [&](net::RebalanceMode m) {
                         return run_star(1024, 3, m);
                       }});
      cells.push_back({"star_4096", 4096,
                       /*incremental_only=*/true, [&](net::RebalanceMode m) {
                         return run_star(4096, 3, m);
                       }});
      cells.push_back({"star_16384", 16384,
                       /*incremental_only=*/true, [&](net::RebalanceMode m) {
                         return run_star(16384, 3, m);
                       }});
    }
  }

  BenchJson json{out_path};
  bool ok = true;

  // Per-arm wall budget for the CI smoke: the shrunk cells run in well under
  // a second, so a minute means the fast path degenerated to something
  // pathological, not that the runner was slow.
  const double smoke_budget_ms = 60000.0;

  // Smoke cells are tiny (milliseconds per arm), so the speedup the ratchet
  // tracks is taken best-of-7 with the two arms interleaved: the simulation
  // is deterministic, repeats only tighten the wall-clock floor against
  // scheduler noise, and interleaving keeps one noisy stretch of a shared
  // runner from landing on every repeat of the same arm.
  const int repeats = smoke ? 7 : 1;
  const auto keep_best = [](RunStats& best, const RunStats& again) {
    best.finished = best.finished && again.finished;
    if (again.wall_ms < best.wall_ms) best.wall_ms = again.wall_ms;
  };

  std::printf("  %-16s %10s %12s %12s %9s %11s\n", "cell", "workers",
              "full_ms", "incr_ms", "speedup", "settle/ev");
  for (const Cell& cell : cells) {
    RunStats incr = cell.run(net::RebalanceMode::kIncremental);
    RunStats full;
    if (!cell.incremental_only) full = cell.run(net::RebalanceMode::kFull);
    for (int r = 1; r < repeats; ++r) {
      keep_best(incr, cell.run(net::RebalanceMode::kIncremental));
      if (!cell.incremental_only) keep_best(full, cell.run(net::RebalanceMode::kFull));
    }
    const net::RebalanceStats& rs = incr.rebalance;
    const double settled_per_event =
        incr.events > 0
            ? static_cast<double>(rs.flows_settled) / static_cast<double>(incr.events)
            : 0.0;
    json.clear_section(cell.label);
    json.set(cell.label, "workers", static_cast<double>(cell.total_workers));
    json.set(cell.label, "incremental_ms", incr.wall_ms);
    json.set(cell.label, "events", static_cast<double>(incr.events));
    json.set(cell.label, "rebalances", static_cast<double>(rs.rebalances));
    json.set(cell.label, "coalesced", static_cast<double>(rs.coalesced));
    json.set(cell.label, "flows_settled", static_cast<double>(rs.flows_settled));
    json.set(cell.label, "settled_per_event", settled_per_event);
    json.set(cell.label, "component_flows", static_cast<double>(rs.component_flows));
    json.set(cell.label, "group_forms", static_cast<double>(rs.group_forms));
    json.set(cell.label, "group_dissolves", static_cast<double>(rs.group_dissolves));
    json.set(cell.label, "group_fast_events",
             static_cast<double>(rs.group_fast_events));
    if (!incr.finished) {
      std::fprintf(stderr, "FAIL: cell %s (incremental) did not finish\n",
                   cell.label.c_str());
      ok = false;
    }
    if (smoke && incr.wall_ms > smoke_budget_ms) {
      std::fprintf(stderr, "FAIL: cell %s incremental arm blew the smoke budget "
                   "(%.1f ms > %.1f ms)\n",
                   cell.label.c_str(), incr.wall_ms, smoke_budget_ms);
      ok = false;
    }
    if (cell.incremental_only) {
      std::printf("  %-16s %10zu %12s %12.1f %9s %11.2f\n", cell.label.c_str(),
                  cell.total_workers, "-", incr.wall_ms, "-", settled_per_event);
      continue;
    }
    const double speedup = full.wall_ms / incr.wall_ms;
    std::printf("  %-16s %10zu %12.1f %12.1f %8.2fx %11.2f\n",
                cell.label.c_str(), cell.total_workers, full.wall_ms,
                incr.wall_ms, speedup, settled_per_event);
    json.set(cell.label, "full_ms", full.wall_ms);
    json.set(cell.label, "speedup", speedup);
    json.set(cell.label, "full_rebalances", static_cast<double>(full.rebalance.rebalances));
    json.set(cell.label, "full_flows_settled",
             static_cast<double>(full.rebalance.flows_settled));
    if (!full.finished) {
      std::fprintf(stderr, "FAIL: cell %s (full) did not finish\n",
                   cell.label.c_str());
      ok = false;
    }
    if (smoke && full.wall_ms > smoke_budget_ms) {
      std::fprintf(stderr, "FAIL: cell %s full arm blew the smoke budget "
                   "(%.1f ms > %.1f ms)\n",
                   cell.label.c_str(), full.wall_ms, smoke_budget_ms);
      ok = false;
    }
    // Bit-identical rates mean the two arms replay the same simulation (same
    // final nanosecond, same event count, same bytes on every link). This is
    // the cross-mode identity gate for the coalesced flush and the
    // rate-group fast path; rate-level bit-identity is
    // tests/test_incremental_rates.
    const bool identical = incr.sim_ns == full.sim_ns && incr.events == full.events &&
                           incr.link_bytes == full.link_bytes;
    json.set(cell.label, "arms_identical", identical ? 1.0 : 0.0);
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: cell %s arms diverged: sim_ns %lld vs %lld, "
                   "events %llu vs %llu, link bytes %s\n",
                   cell.label.c_str(), static_cast<long long>(full.sim_ns),
                   static_cast<long long>(incr.sim_ns),
                   static_cast<unsigned long long>(full.events),
                   static_cast<unsigned long long>(incr.events),
                   incr.link_bytes == full.link_bytes ? "equal" : "differ");
      ok = false;
    }
  }

  // --- multi-run scaling through the sweep executor -----------------------
  const std::size_t n_runs = smoke ? 4 : 8;
  const std::size_t star_workers = smoke ? 8 : 16;
  const auto sweep_cell = [&](std::size_t i) {
    const auto cfg = star_config(star_workers, iters, /*seed=*/1 + i,
                                 net::RebalanceMode::kIncremental);
    const auto result = ps::run_cluster(cfg, 1);
    std::uint64_t fp = 14695981039346656037ull;
    fp = fnv1a(fp, static_cast<std::uint64_t>(result.simulated_time.count_nanos()));
    fp = fnv1a(fp, result.events_fired);
    char line[96];
    std::snprintf(line, sizeof line, "run %zu fp=%016llx\n", i,
                  static_cast<unsigned long long>(fp));
    return exec::CellResult{.output = line, .ok = true};
  };

  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  const unsigned threads = std::min<unsigned>(cores, static_cast<unsigned>(n_runs));

  std::ostringstream serial_out;
  double t0 = now_ms();
  exec::run_sweep(n_runs, sweep_cell, serial_out, 1);
  const double serial_ms = now_ms() - t0;

  std::ostringstream parallel_out;
  t0 = now_ms();
  exec::run_sweep(n_runs, sweep_cell, parallel_out, threads);
  const double parallel_ms = now_ms() - t0;

  const bool identical = serial_out.str() == parallel_out.str();
  const double speedup = serial_ms / parallel_ms;
  const double efficiency = speedup / static_cast<double>(threads);
  std::printf(
      "\n  sweep: %zu runs, %u thread(s): serial %.1f ms, parallel %.1f ms "
      "(%.2fx, %.0f%% of ideal), outputs %s\n",
      n_runs, threads, serial_ms, parallel_ms, speedup, efficiency * 100.0,
      identical ? "identical" : "DIVERGED");
  json.clear_section("sweep");
  json.set("sweep", "runs", static_cast<double>(n_runs));
  json.set("sweep", "threads", static_cast<double>(threads));
  json.set("sweep", "cores", static_cast<double>(cores));
  json.set("sweep", "serial_ms", serial_ms);
  json.set("sweep", "parallel_ms", parallel_ms);
  json.set("sweep", "speedup", speedup);
  json.set("sweep", "efficiency", efficiency);
  json.set("sweep", "identical", identical ? 1.0 : 0.0);
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: sweep output depends on thread count (%zu runs, %u "
                 "threads)\n",
                 n_runs, threads);
    ok = false;
  }

  json.save();
  std::printf("JSON: %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
