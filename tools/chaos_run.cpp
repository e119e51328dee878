// Deterministic chaos harness: runs every scheduling strategy under
// seed-derived randomized fault plans (transport loss, a worker crash, and
// periodically a PS failover) with the BSP invariant auditor always on, and
// replays each configuration to prove the fault timeline is bit-identical
// per seed.
//
// Exit status is the contract: 0 means every run finished all iterations,
// no BSP invariant tripped (the auditor aborts the process on violation),
// every run observed its injected faults, and every replay fingerprint
// matched. A second block of cells runs two jobs on one shared
// oversubscribed leaf-spine fabric and holds the combined run to the same
// replay-fingerprint bar. Wired into ctest under the `chaos` label.
//
// Every (strategy × seed) and multijob cell is independent, so the matrix
// fans out across cores through exec::parallel_for_index; each cell buffers
// its own output and the buffers are emitted in canonical cell order after
// the barrier, so stdout/stderr and the exit status are byte-identical at
// any --threads value. Unlike the old serial loop, a failing cell no longer
// short-circuits the matrix: every failure is reported.
//
// Usage: chaos_run [--seeds N] [--iterations N] [--threads N] [--verbose]
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cluster/multi_job.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "dnn/model_zoo.hpp"
#include "exec/executor.hpp"
#include "metrics/transfer_log.hpp"
#include "ps/cluster.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

// Collapses a run into one value: simulation totals plus every per-worker
// iteration start, transfer record and fault event. Two runs of the same
// config must produce the same fingerprint or determinism is broken.
std::uint64_t fingerprint(const ps::ClusterResult& result) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a(h, static_cast<std::uint64_t>(result.simulated_time.count_nanos()));
  h = fnv1a(h, result.events_fired);
  h = fnv1a(h, result.audit_checks);
  for (const auto& w : result.workers) {
    h = fnv1a(h, w.iterations_completed);
    for (std::size_t i = 0; i < w.training.iterations_started(); ++i) {
      h = fnv1a(h, static_cast<std::uint64_t>(
                       w.training.iteration_start(i).count_nanos()));
    }
    h = fnv1a(h, w.transfers.records().size());
    for (const auto& rec : w.transfers.records()) {
      h = fnv1a(h, static_cast<std::uint64_t>(rec.finished.count_nanos()));
      h = fnv1a(h, rec.attempts);
    }
    for (const auto& fault : w.transfers.faults()) {
      h = fnv1a(h, static_cast<std::uint64_t>(fault.kind));
      h = fnv1a(h, static_cast<std::uint64_t>(fault.at.count_nanos()));
    }
  }
  return h;
}

std::size_t total_faults(const ps::ClusterResult& result) {
  std::size_t n = 0;
  for (const auto& w : result.workers) n += w.transfers.faults().size();
  return n;
}

std::size_t total_retries(const ps::ClusterResult& result) {
  std::size_t n = 0;
  for (const auto& w : result.workers) {
    for (const auto& fault : w.transfers.faults()) {
      if (fault.kind == metrics::FaultKind::kTransportRetry) ++n;
    }
  }
  return n;
}

// printf into a std::string, appending.
void appendf(std::string& s, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& s, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) s.append(buf, static_cast<std::size_t>(n));
}

// One strategy x seed cell: a small 2-worker toy_cnn job with a fault plan
// drawn from the seed. All fault instants stay under ~200 ms so they land
// mid-training for every strategy (the fastest finishes in ~260 ms). The
// shard count also derives from the seed, so the matrix sweeps single-PS,
// 2-shard and 3-shard tiers; sharded cells lose one randomly chosen shard
// (partial rollback), single-PS cells periodically lose the whole tier.
ps::ClusterConfig chaos_config(const ps::StrategyConfig& strategy,
                               std::uint64_t seed, std::size_t iterations) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 32;
  cfg.iterations = iterations;
  cfg.seed = seed;
  cfg.ps_shards = 1 + seed % 3;
  cfg.worker_bandwidth = Bandwidth::gbps(1);
  cfg.ps_bandwidth = Bandwidth::gbps(1);
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  cfg.reliability.retry_budget = 64;
  cfg.checkpoint_period = 40_ms;

  // The plan RNG is independent of the simulation seed stream on purpose:
  // the same seed must drive both the fault plan and the run.
  Rng plan{seed ^ 0xc4a05u};
  cfg.dynamics.loss_rate(Duration::millis(plan.uniform_int(5, 40)),
                         plan.uniform(0.02, 0.12));
  cfg.dynamics.worker_crash(
      Duration::millis(plan.uniform_int(50, 110)),
      Duration::millis(plan.uniform_int(10, 40)),
      static_cast<std::size_t>(plan.uniform_int(0, 1)));
  if (cfg.ps_shards == 1) {
    cfg.dynamics.ps_crash(Duration::millis(plan.uniform_int(160, 190)),
                          Duration::millis(plan.uniform_int(15, 35)));
  } else {
    cfg.dynamics.ps_shard_crash(
        Duration::millis(plan.uniform_int(160, 190)),
        Duration::millis(plan.uniform_int(15, 35)),
        static_cast<std::size_t>(
            plan.uniform_int(0, static_cast<std::int64_t>(cfg.ps_shards) - 1)));
  }
  return cfg;
}

// What one cell hands back to the merge step: buffered stdout/stderr text
// plus the aggregates the matrix-level checks need.
struct ChaosCell {
  std::string out;
  std::string err;
  bool ok = true;
  std::size_t retries = 0;
};

ChaosCell run_matrix_cell(const ps::StrategyConfig& strategy, std::uint64_t seed,
                          std::size_t iterations, bool verbose) {
  ChaosCell cell;
  const auto cfg = chaos_config(strategy, seed, iterations);
  const auto first = ps::run_cluster(cfg, 1);
  const auto replay = ps::run_cluster(cfg, 1);
  const std::uint64_t fp = fingerprint(first);
  if (fp != fingerprint(replay)) {
    appendf(cell.err, "chaos_run: REPLAY DIVERGED strategy=%s seed=%llu\n",
            strategy.name().c_str(), static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  for (const auto& w : first.workers) {
    if (w.iterations_completed != iterations) {
      appendf(cell.err,
              "chaos_run: INCOMPLETE strategy=%s seed=%llu worker=%zu "
              "finished %zu/%zu iterations\n",
              strategy.name().c_str(), static_cast<unsigned long long>(seed),
              w.id, w.iterations_completed, iterations);
      cell.ok = false;
      return cell;
    }
  }
  // Every plan contains at least a worker crash; a run that recorded no
  // fault means the injection silently missed the training window.
  if (total_faults(first) == 0) {
    appendf(cell.err, "chaos_run: NO FAULTS LANDED strategy=%s seed=%llu\n",
            strategy.name().c_str(), static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  if (cfg.dynamics.has_ps_crash()) {
    for (const auto& w : first.workers) {
      std::size_t failovers = 0;
      for (const auto& fault : w.transfers.faults()) {
        if (fault.kind == metrics::FaultKind::kPsFailover) ++failovers;
      }
      if (failovers != 1) {
        appendf(cell.err,
                "chaos_run: PS FAILOVER MISSED strategy=%s seed=%llu "
                "worker=%zu saw %zu failovers\n",
                strategy.name().c_str(), static_cast<unsigned long long>(seed),
                w.id, failovers);
        cell.ok = false;
        return cell;
      }
    }
  }
  cell.retries = total_retries(first);
  if (verbose) {
    appendf(cell.out,
            "%-14s seed=%-3llu time=%.3fs faults=%zu retries=%zu "
            "audit_checks=%zu fp=%016llx\n",
            strategy.name().c_str(), static_cast<unsigned long long>(seed),
            first.simulated_time.to_seconds(), total_faults(first),
            total_retries(first), first.audit_checks,
            static_cast<unsigned long long>(fp));
  }
  return cell;
}

// Multi-job cell: two toy_cnn jobs sharing one oversubscribed leaf-spine
// spine inside a single event loop, run twice per seed and fingerprint-
// compared — cross-job contention through the shared fabric must replay
// bit-identically just like the single-job faults above.
std::uint64_t multijob_fingerprint(const cluster::MultiJobResult& result) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a(h, static_cast<std::uint64_t>(result.makespan.count_nanos()));
  h = fnv1a(h, result.events_fired);
  h = fnv1a(h, static_cast<std::uint64_t>(result.spine_bytes));
  for (const auto& job : result.jobs) {
    h = fnv1a(h, static_cast<std::uint64_t>(job.finish_time.count_nanos()));
    h = fnv1a(h, static_cast<std::uint64_t>(job.start_offset.count_nanos()));
    h = fnv1a(h, fingerprint(job.result));
  }
  return h;
}

ChaosCell run_multijob_cell(std::uint64_t seed, std::size_t iterations,
                            bool verbose) {
  ChaosCell cell;
  cluster::MultiJobConfig cfg;
  cfg.topology = net::TopologySpec::leaf_spine(
      /*racks=*/2, /*hosts_per_rack=*/2, Bandwidth::gbps(1),
      /*oversubscription=*/4.0);
  // FIFO striping forces both jobs across the 500 Mbps spine: the cell
  // exercises cross-job link contention, not placement quality.
  cfg.placement = cluster::PlacementPolicy::kFifoStripe;
  cfg.interleave = cluster::InterleavePolicy::kNone;
  for (std::size_t j = 0; j < 2; ++j) {
    cluster::JobSpec job;
    job.config.model = dnn::toy_cnn();
    job.config.num_workers = 1;
    job.config.batch = 32;
    job.config.iterations = iterations;
    job.config.seed = seed + j;
    job.config.strategy = ps::StrategyConfig::fifo();
    cfg.jobs.push_back(std::move(job));
  }
  const auto first = cluster::run_multi_job(cfg);
  const auto replay = cluster::run_multi_job(cfg);
  const std::uint64_t fp = multijob_fingerprint(first);
  if (fp != multijob_fingerprint(replay)) {
    appendf(cell.err, "chaos_run: MULTIJOB REPLAY DIVERGED seed=%llu\n",
            static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  if (first.spine_bytes == 0) {
    appendf(cell.err,
            "chaos_run: MULTIJOB cell put no traffic on the spine "
            "seed=%llu\n",
            static_cast<unsigned long long>(seed));
    cell.ok = false;
    return cell;
  }
  if (verbose) {
    appendf(cell.out,
            "multijob       seed=%-3llu makespan=%.3fs spine=%lld fp=%016llx\n",
            static_cast<unsigned long long>(seed), first.makespan.to_seconds(),
            static_cast<long long>(first.spine_bytes),
            static_cast<unsigned long long>(fp));
  }
  return cell;
}

int run_chaos(std::size_t seeds, std::size_t iterations, unsigned threads,
              bool verbose) {
  const std::vector<ps::StrategyConfig> strategies{
      ps::StrategyConfig::fifo(), ps::StrategyConfig::p3(),
      ps::StrategyConfig::bytescheduler(), ps::StrategyConfig::prophet()};

  // Canonical cell order (the serial-loop order): strategy-major matrix
  // cells, then the multijob block.
  const std::size_t matrix_cells = strategies.size() * seeds;
  const std::size_t n_cells = matrix_cells + seeds;
  std::vector<ChaosCell> cells(n_cells);
  exec::parallel_for_index(
      n_cells,
      [&](std::size_t i) {
        if (i < matrix_cells) {
          const auto& strategy = strategies[i / seeds];
          const std::uint64_t seed = 1 + i % seeds;
          cells[i] = run_matrix_cell(strategy, seed, iterations, verbose);
        } else {
          const std::uint64_t seed = 1 + (i - matrix_cells);
          cells[i] = run_multijob_cell(seed, iterations, verbose);
        }
      },
      threads);

  // Deterministic merge: emit buffered output in cell order, then the
  // matrix-level summaries, exactly as the serial loops printed them.
  std::size_t failures = 0;
  std::size_t retries_total = 0;
  for (std::size_t i = 0; i < n_cells; ++i) {
    const ChaosCell& cell = cells[i];
    if (!cell.out.empty()) std::fputs(cell.out.c_str(), stdout);
    if (!cell.err.empty()) std::fputs(cell.err.c_str(), stderr);
    if (!cell.ok) ++failures;
    if (i < matrix_cells) retries_total += cell.retries;
  }
  if (failures != 0) return 1;
  // Across the whole matrix the loss injection must have bitten somewhere;
  // zero retries overall means the loss model regressed to a no-op.
  if (retries_total == 0) {
    std::fprintf(stderr, "chaos_run: loss injection produced zero retries\n");
    return 1;
  }
  std::printf("chaos_run: %zu runs x2 replays clean (%zu transport retries)\n",
              matrix_cells, retries_total);
  std::printf("chaos_run: %zu multijob cells x2 replays clean\n", seeds);
  return 0;
}

}  // namespace
}  // namespace prophet

int main(int argc, char** argv) {
  std::string error;
  const auto flags = prophet::Flags::parse(argc, argv, &error);
  if (!flags) {
    std::fprintf(stderr, "chaos_run: %s\n", error.c_str());
    return 2;
  }
  const std::size_t seeds = flags->get_count("seeds", 20);
  const std::size_t iterations = flags->get_count("iterations", 14);
  const std::size_t threads = flags->get_count("threads", 0);
  PROPHET_CHECK_MSG(threads <= std::numeric_limits<unsigned>::max(),
                    "--threads is too large");
  const bool verbose = flags->get("verbose", false);
  return prophet::run_chaos(seeds, iterations, static_cast<unsigned>(threads), verbose);
}
