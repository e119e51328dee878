// Traced run: per-layer metrics, measured from the benchmark's own files
// around calls into each layer's public functions. Nothing under src/ is
// instrumented.
//
//   1. timed pass   — every cell through its public driver, serially, then
//                     again through exec::run_sweep on 2 threads;
//   2. traced pass  — every PS and multi-job cell driven through the
//                     ps::JobRuntime lifecycle with a span per phase (build,
//                     event loop, drain, finish_audit, collect); its
//                     fingerprint must equal the driver's (fidelity check);
//   3. flow replay  — each traced job's push/pull tasks, rebuilt from its
//                     transfer logs, replayed through a bare net::FlowNetwork
//                     with and without the per-worker trackers;
//   4. replays of the planners (core/), the GP-UCB tuner (sched/), the
//      cluster scheduler (cluster/) and bare event dispatch (sim/).
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "core/block_planner.hpp"
#include "core/local_search.hpp"
#include "core/perf_model.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/stepwise.hpp"
#include "exec/executor.hpp"
#include "metrics/transfer_log.hpp"
#include "sched/bayesopt.hpp"
#include "sched/bytescheduler.hpp"

namespace prophet::perfbench {
namespace {

// Wall time of one phase, summed over the workload's traced cells.
struct Spans {
  double build_ms = 0.0;
  double loop_ms = 0.0;  // start() plus the event loop to the last iteration
  double drain_ms = 0.0;
  double audit_ms = 0.0;
  double collect_ms = 0.0;
  std::uint64_t loop_events = 0;

  [[nodiscard]] double total_ms() const {
    return build_ms + loop_ms + drain_ms + audit_ms + collect_ms;
  }
};

// Drives a PS or multi-job cell through the JobRuntime lifecycle exactly as
// ps::Cluster::run and cluster::run_multi_job do. Returns nullopt, with
// `error` set, when a job misses the horizon (where the drivers abort).
std::optional<cluster::MultiJobResult> drive(const Cell& cell, Spans& spans,
                                             std::string& error) {
  double t0 = now_ms();
  Runtime rt{cell};
  double t1 = now_ms();
  spans.build_ms += t1 - t0;

  t0 = t1;
  for (auto& job : rt.jobs) job->start();
  const TimePoint horizon = TimePoint::origin() + rt.horizon;
  const std::size_t n = rt.jobs.size();
  std::vector<bool> finished(n, false);
  std::vector<Duration> finish_at(n, Duration::zero());
  std::size_t remaining = n;
  auto sweep_finished = [&] {
    for (std::size_t j = 0; j < n; ++j) {
      if (finished[j] || !rt.jobs[j]->done()) continue;
      rt.jobs[j]->recover_crashed();
      rt.jobs[j]->disarm_faults();
      rt.jobs[j]->finish_training(rt.sim.now());
      finished[j] = true;
      finish_at[j] = rt.sim.now() - TimePoint::origin();
      --remaining;
    }
  };
  sweep_finished();
  while (remaining > 0 && rt.sim.now() < horizon) {
    if (!rt.sim.step()) break;
    sweep_finished();
  }
  t1 = now_ms();
  spans.loop_ms += t1 - t0;
  spans.loop_events += rt.sim.events_fired();
  if (remaining > 0) {
    error = cell.label + ": a job did not finish within the horizon";
    return std::nullopt;
  }

  t0 = t1;
  rt.sim.run_until(horizon);
  t1 = now_ms();
  spans.drain_ms += t1 - t0;

  t0 = t1;
  for (auto& job : rt.jobs) job->finish_audit();
  t1 = now_ms();
  spans.audit_ms += t1 - t0;

  t0 = t1;
  cluster::MultiJobResult result;
  result.events_fired = rt.sim.events_fired();
  result.spine_bytes = rt.topology.spine_bytes();
  result.rebalance = rt.network.rebalance_stats();
  for (std::size_t j = 0; j < n; ++j) {
    cluster::JobOutcome out;
    out.name = cell.kind == CellKind::kMultiJob ? cell.multi.jobs[j].name
                                                : cell.rate_key;
    out.result = rt.jobs[j]->collect({}, rt.sim.events_fired());
    if (cell.kind == CellKind::kMultiJob) {
      out.placement = rt.placements[j];
      out.start_offset = rt.offsets[j];
    }
    out.finish_time = finish_at[j];
    result.makespan = std::max(result.makespan, out.finish_time);
    result.jobs.push_back(std::move(out));
  }
  spans.collect_ms += now_ms() - t0;
  return result;
}

// The configs of a cell's jobs as the runtime sees them (multi-job configs
// take the shared fabric).
std::vector<ps::ClusterConfig> job_configs(const Cell& cell) {
  if (cell.kind != CellKind::kMultiJob) return {cell.config};
  std::vector<ps::ClusterConfig> out;
  for (const auto& job : cell.multi.jobs) {
    ps::ClusterConfig cfg = job.config;
    cfg.topology = cell.multi.topology;
    cfg.worker_bandwidth_override.clear();
    out.push_back(std::move(cfg));
  }
  return out;
}

// --- simulated iteration breakdown ------------------------------------------

struct IterBreakdown {
  double compute_ms = 0.0;
  double idle_ms = 0.0;
  double push_ms = 0.0;
  double pull_ms = 0.0;
  std::size_t worker_iterations = 0;
  std::vector<double> waits_ms;
};

// Length of the union of [begin, end) intervals, in ns.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_begin = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

// Folds one job's post-warmup window into the strategy's breakdown: GPU
// busy and idle time from gpu_intervals, the Eq. (2)/(3) wait (enqueue to
// start) per pushed gradient, and the time each direction of the worker's
// NIC carried a push or pull task, per worker-iteration.
void add_breakdown(const ps::ClusterResult& result, IterBreakdown& out) {
  const std::size_t first = result.measure_first;
  const std::size_t last = result.measure_last;
  for (const auto& w : result.workers) {
    const std::int64_t begin = w.training.iteration_start(first).count_nanos();
    const std::int64_t end = w.training.iteration_start(last).count_nanos();
    std::int64_t busy = 0;
    for (const auto& [b, e] : w.gpu_intervals) {
      const std::int64_t lo = std::max(begin, b.count_nanos());
      const std::int64_t hi = std::min(end, e.count_nanos());
      if (hi > lo) busy += hi - lo;
    }
    out.compute_ms += static_cast<double>(busy) * 1e-6;
    out.idle_ms += static_cast<double>(end - begin - busy) * 1e-6;
    std::map<std::pair<std::size_t, sched::TaskKind>,
             std::vector<std::pair<std::int64_t, std::int64_t>>>
        tasks;
    for (const auto& rec : w.transfers.records()) {
      if (rec.iteration < first || rec.iteration >= last) continue;
      tasks[{rec.iteration, rec.kind}].emplace_back(rec.started.count_nanos(),
                                                    rec.finished.count_nanos());
      if (rec.kind == sched::TaskKind::kPush) {
        out.waits_ms.push_back(rec.wait().to_millis());
      }
    }
    for (auto& [key, iv] : tasks) {
      const double ms = static_cast<double>(union_ns(iv)) * 1e-6;
      (key.second == sched::TaskKind::kPush ? out.push_ms : out.pull_ms) += ms;
    }
    out.worker_iterations += last - first;
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- flow replay ---------------------------------------------------------------

struct ReplayFlow {
  std::int64_t start_ns = 0;
  net::NodeId src{};
  net::NodeId dst{};
  std::int64_t bytes = 0;
};

// Hosts of one replayed job, added in JobRuntime's order and placement.
struct ReplayJob {
  std::vector<net::NodeId> ps;
  std::vector<net::NodeId> workers;
};

struct ReplayOutcome {
  double ms = 0.0;
  // Bytes each worker sent (tx) and received (rx), per job, from the bare
  // network's counters and, when trackers were attached, from the series.
  std::vector<std::vector<std::int64_t>> tx;
  std::vector<std::vector<std::int64_t>> rx;
  std::vector<std::vector<double>> tracked_tx;
  std::vector<std::vector<double>> tracked_rx;
};

double series_total(const BinnedSeries& s) {
  double total = 0.0;
  for (std::size_t i = 0; i < s.bin_count(); ++i) total += s.bin_amount(i);
  return total;
}

// Rebuilds each job's push and pull tasks from its transfer log (one flow
// per task and PS shard: key k lives on shard k % ps_shards) and replays
// them at their logged start times through a bare FlowNetwork on the same
// topology, optionally with per-worker tx/rx trackers attached.
ReplayOutcome replay(const Cell& cell, const cluster::MultiJobResult& run,
                     bool trackers) {
  const std::vector<ps::ClusterConfig> configs = job_configs(cell);
  ReplayOutcome out;
  const double t0 = now_ms();
  sim::Simulator sim;
  net::FlowNetwork network{sim, net::TcpCostModel{configs.front().tcp}};
  net::BuiltTopology topology{network, configs.front().resolved_topology()};
  std::vector<ReplayJob> jobs;
  std::vector<std::vector<BinnedSeries>> tx_series(configs.size());
  std::vector<std::vector<BinnedSeries>> rx_series(configs.size());
  for (std::size_t j = 0; j < configs.size(); ++j) {
    const ps::ClusterConfig& cfg = configs[j];
    const net::TopologySpec spec = cfg.resolved_topology();
    const std::string prefix =
        cell.kind == CellKind::kMultiJob ? cell.multi.jobs[j].name + "." : "";
    const cluster::Placement& place = run.jobs[j].placement;
    ReplayJob job;
    for (std::size_t s = 0; s < cfg.ps_shards; ++s) {
      const std::string name = cfg.ps_shards == 1 ? "ps" : "ps" + std::to_string(s);
      job.ps.push_back(topology.add_host(prefix + name, spec.ps_bandwidth, place.ps_rack));
    }
    for (std::size_t w = 0; w < cfg.num_workers; ++w) {
      std::optional<std::size_t> rack;
      if (w < place.worker_racks.size()) rack = place.worker_racks[w];
      job.workers.push_back(topology.add_host(prefix + "worker" + std::to_string(w),
                                              cfg.bandwidth_of_worker(w), rack));
    }
    if (trackers) {
      const Duration horizon = cfg.metrics_horizon + run.jobs[j].start_offset;
      tx_series[j].assign(cfg.num_workers, BinnedSeries{cfg.metrics_bin, horizon});
      rx_series[j].assign(cfg.num_workers, BinnedSeries{cfg.metrics_bin, horizon});
      for (std::size_t w = 0; w < cfg.num_workers; ++w) {
        network.attach_tracker(job.workers[w], net::Direction::kTx, &tx_series[j][w]);
        network.attach_tracker(job.workers[w], net::Direction::kRx, &rx_series[j][w]);
      }
    }
    jobs.push_back(std::move(job));
  }

  std::vector<ReplayFlow> flows;
  for (std::size_t j = 0; j < configs.size(); ++j) {
    const std::size_t shards = configs[j].ps_shards;
    const auto& workers = run.jobs[j].result.workers;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      // (kind, started, finished) identifies a task; bytes split per shard.
      std::map<std::tuple<int, std::int64_t, std::int64_t>, std::vector<std::int64_t>>
          tasks;
      for (const auto& rec : workers[w].transfers.records()) {
        auto& bytes = tasks[{static_cast<int>(rec.kind), rec.started.count_nanos(),
                             rec.finished.count_nanos()}];
        bytes.resize(shards, 0);
        bytes[rec.grad % shards] += rec.bytes.count();
      }
      for (const auto& [key, per_shard] : tasks) {
        const bool push = std::get<0>(key) == static_cast<int>(sched::TaskKind::kPush);
        for (std::size_t s = 0; s < shards; ++s) {
          if (per_shard[s] == 0) continue;
          const net::NodeId worker = jobs[j].workers[w];
          const net::NodeId ps = jobs[j].ps[s];
          flows.push_back({std::get<1>(key), push ? worker : ps, push ? ps : worker,
                           per_shard[s]});
        }
      }
    }
  }
  std::stable_sort(flows.begin(), flows.end(),
                   [](const ReplayFlow& a, const ReplayFlow& b) {
                     return a.start_ns < b.start_ns;
                   });
  for (const ReplayFlow& f : flows) {
    sim.schedule_at(TimePoint::from_nanos(f.start_ns), [&network, f] {
      network.start_flow(f.src, f.dst, Bytes::of(f.bytes), [](net::FlowId) {});
    });
  }
  sim.run();
  out.ms = now_ms() - t0;

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    out.tx.emplace_back();
    out.rx.emplace_back();
    out.tracked_tx.emplace_back();
    out.tracked_rx.emplace_back();
    for (std::size_t w = 0; w < jobs[j].workers.size(); ++w) {
      out.tx.back().push_back(network.total_bytes(jobs[j].workers[w], net::Direction::kTx));
      out.rx.back().push_back(network.total_bytes(jobs[j].workers[w], net::Direction::kRx));
      if (trackers) {
        out.tracked_tx.back().push_back(series_total(tx_series[j][w]));
        out.tracked_rx.back().push_back(series_total(rx_series[j][w]));
      }
    }
  }
  return out;
}

// Each worker's replayed bytes, per direction, must equal the run's totals
// (what the run's own trackers credited) and the transfer log, to within
// one byte per logged transfer: the engine settles fractional bytes, and a
// replay without the run's bandwidth dynamics rounds differently. Where the
// worker's transport retried, the retry re-sent part of a task, so the run's
// total may exceed the replay's, never fall short.
void check_replay(const Cell& cell, const cluster::MultiJobResult& run,
                  const ReplayOutcome& r, std::vector<std::string>& problems) {
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    const auto& workers = run.jobs[j].result.workers;
    for (std::size_t w = 0; w < workers.size() && problems.size() < 10; ++w) {
      std::int64_t logged[2] = {0, 0};
      std::int64_t records[2] = {0, 0};
      bool retried = false;
      for (const auto& rec : workers[w].transfers.records()) {
        const int dir = rec.kind == sched::TaskKind::kPush ? 0 : 1;
        logged[dir] += rec.bytes.count();
        ++records[dir];
        retried = retried || rec.attempts > 1;
      }
      const std::int64_t counted[2] = {r.tx[j][w], r.rx[j][w]};
      const double replayed[2] = {r.tracked_tx[j][w], r.tracked_rx[j][w]};
      const double ran[2] = {series_total(workers[w].tx_series),
                             series_total(workers[w].rx_series)};
      const std::string who = cell.label + " job " + run.jobs[j].name + " worker " +
                              std::to_string(w);
      for (int dir = 0; dir < 2; ++dir) {
        const char* name = dir == 0 ? " tx" : " rx";
        const std::int64_t shortfall = logged[dir] - counted[dir];
        if (shortfall < 0 || shortfall > records[dir]) {
          problems.push_back(who + name + ": replayed " + std::to_string(counted[dir]) +
                             " bytes for " + std::to_string(logged[dir]) + " logged");
        } else if (const auto slack = static_cast<double>(records[dir]);
                   ran[dir] < replayed[dir] - slack ||
                   (!retried && ran[dir] > replayed[dir] + slack)) {
          problems.push_back(who + name + ": replayed " + std::to_string(replayed[dir]) +
                             " bytes, the run moved " + std::to_string(ran[dir]));
        }
      }
    }
  }
}

// --- replays of single layers --------------------------------------------------

// Mean wall time of `body` in microseconds, repeated for at least `min_ms`.
template <typename F>
double mean_us(double min_ms, F&& body) {
  const double t0 = now_ms();
  std::size_t reps = 0;
  do {
    body();
    ++reps;
  } while (now_ms() - t0 < min_ms);
  return (now_ms() - t0) * 1e3 / static_cast<double>(reps);
}

struct PlannerReplay {
  double plan_us = 0.0;
  double refine_us = 0.0;
  double refine_moves = 0.0;
};

// BlockPlanner::plan and LocalSearchPlanner::refine on each distinct
// (model, batch, worker bandwidth) of the workload, from the noise-free
// gradient profile the profiler converges to.
PlannerReplay replay_planners(const Workload& wl) {
  std::set<std::tuple<std::string, int, double>> seen;
  std::vector<ps::ClusterConfig> profiles;
  for (const Cell& cell : wl.cells) {
    if (cell.kind == CellKind::kRing) continue;
    for (const ps::ClusterConfig& cfg : job_configs(cell)) {
      const double gbps = cfg.bandwidth_of_worker(0).to_gbps();
      if (seen.insert({cfg.model.name(), cfg.batch, gbps}).second) {
        profiles.push_back(cfg);
      }
    }
  }
  PlannerReplay out;
  for (const ps::ClusterConfig& cfg : profiles) {
    const dnn::IterationModel iteration{cfg.model, cfg.gpu, cfg.batch, cfg.kvstore};
    const dnn::IterationTiming timing = iteration.nominal();
    core::GradientProfile profile;
    profile.ready = timing.ready_offset;
    for (const auto& tensor : cfg.model.tensors()) profile.sizes.push_back(tensor.bytes);
    profile.intervals = dnn::transfer_intervals(profile.ready);
    profile.iterations_profiled = 1;
    const Bandwidth bw = cfg.bandwidth_of_worker(0);
    const net::TcpCostModel cost{cfg.tcp};
    const core::BlockPlanner planner{cost};
    core::Schedule plan;
    out.plan_us += mean_us(20.0, [&] { plan = planner.plan(profile, bw); });
    const core::PerfModel model{profile, timing.fwd, bw, cost};
    const core::LocalSearchPlanner search;
    std::size_t moves = 0;
    out.refine_us += mean_us(20.0, [&] { moves = search.refine(plan, model).moves_evaluated; });
    out.refine_moves += static_cast<double>(moves);
  }
  const auto n = static_cast<double>(profiles.size());
  out.plan_us /= n;
  out.refine_us /= n;
  out.refine_moves /= n;
  return out;
}

// ByteScheduler's credit tuner: one GP-UCB suggest plus observe per
// training iteration, over as many iterations as the workload's jobs run,
// against a smooth single-peaked rate curve.
double replay_bayesopt(const Workload& wl) {
  std::size_t steps = 0;
  for (const Cell& cell : wl.cells) {
    for (const ps::ClusterConfig& cfg : job_configs(cell)) {
      steps = std::max(steps, cfg.iterations);
    }
  }
  const sched::ByteSchedulerConfig bs;
  const auto lo = static_cast<double>(bs.credit_min.count());
  const auto hi = static_cast<double>(bs.credit_max.count());
  const double us = mean_us(20.0, [&] {
    sched::BayesOpt1D tuner{lo, hi};
    Rng rng{7};
    double x = 0.5 * (lo + hi);
    for (std::size_t i = 0; i < steps; ++i) {
      const double d = std::log(x / (4.0 * 1024 * 1024));
      tuner.observe(x, 100.0 - d * d);
      x = tuner.suggest(rng);
    }
  });
  return us / static_cast<double>(steps);
}

// cluster::place_jobs and interleave_offsets on the workload's jobs, each
// single-job cell submitted as one job on its own fabric.
std::pair<double, double> replay_cluster_scheduler(const Workload& wl) {
  net::TopologySpec topology;
  cluster::PlacementPolicy placement = cluster::PlacementPolicy::kNetworkAware;
  cluster::InterleavePolicy interleave = cluster::InterleavePolicy::kCassini;
  std::vector<cluster::JobSpec> jobs;
  for (const Cell& cell : wl.cells) {
    if (cell.kind == CellKind::kMultiJob) {
      topology = cell.multi.topology;
      placement = cell.multi.placement;
      interleave = cell.multi.interleave;
      jobs = cell.multi.jobs;
      break;
    }
    if (cell.kind == CellKind::kPs) {
      topology = cell.config.resolved_topology();
      jobs.push_back({cell.config, cell.label});
    }
  }
  std::vector<cluster::Placement> placements;
  const double place_us =
      mean_us(20.0, [&] { placements = cluster::place_jobs(topology, jobs, placement); });
  const double interleave_us = mean_us(20.0, [&] {
    const auto offsets =
        cluster::interleave_offsets(topology, jobs, placements, interleave);
    (void)offsets;
  });
  return {place_us, interleave_us};
}

// A bare simulator firing `events` events with `pending` of them queued at
// any time, each callback re-arming itself at a pseudo-random delay.
double dispatch_ns_per_event(std::uint64_t events, std::size_t pending) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t lcg = 12345;
  std::function<void()> tick;
  tick = [&] {
    ++fired;
    if (fired + pending <= events) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      sim.schedule_after(Duration::micros(static_cast<std::int64_t>(1 + (lcg >> 33) % 1000)),
                         tick);
    }
  };
  const double t0 = now_ms();
  for (std::size_t i = 0; i < pending; ++i) {
    sim.schedule_after(Duration::micros(static_cast<std::int64_t>(i % 1000)), tick);
  }
  sim.run();
  return (now_ms() - t0) * 1e6 / static_cast<double>(std::max<std::uint64_t>(fired, 1));
}

}  // namespace

RunReport run_traced(const std::string& workload, std::uint64_t seed) {
  RunReport report;
  const Workload wl = make_workload(workload, seed);
  const std::size_t n = wl.cells.size();

  auto fail = [&](const std::string& what) {
    ++report.failed;
    if (report.problems.size() < 10) report.problems.push_back(what);
  };

  // 1. Timed pass, serial, then through the executor on 2 threads.
  std::vector<CallResult> timed(n);
  const double serial_t0 = now_ms();
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = now_ms();
    timed[i] = run_cell(wl.cells[i]);
    timed[i].host_ms = now_ms() - t0;
    ++report.attempted;
    if (!timed[i].error.empty()) fail(timed[i].error);
  }
  const double serial_ms = now_ms() - serial_t0;

  std::vector<CallResult> parallel(n);
  std::ostringstream sink;
  const double parallel_t0 = now_ms();
  exec::run_sweep(
      n,
      [&](std::size_t i) {
        parallel[i] = run_cell(wl.cells[i]);
        return exec::CellResult{{}, parallel[i].error.empty()};
      },
      sink, 2);
  const double parallel_ms = now_ms() - parallel_t0;
  for (std::size_t i = 0; i < n; ++i) {
    ++report.attempted;
    if (!parallel[i].error.empty()) {
      fail(parallel[i].error);
    } else if (parallel[i].fingerprint != timed[i].fingerprint) {
      fail(wl.cells[i].label + ": 2-thread sweep fingerprint differs from serial");
    }
  }

  // 2-3. Traced pass with flow replay, one cell at a time.
  Spans spans;
  double timed_traced_ms = 0.0;
  net::RebalanceStats net_stats;
  std::uint64_t events = 0;
  std::uint64_t retries = 0;
  std::int64_t spine_bytes = 0;
  std::size_t transfer_records = 0;
  std::size_t audit_checks = 0;
  std::size_t plans = 0;
  double tasks = 0.0;
  double task_bytes = 0.0;
  double worker_iterations = 0.0;
  double replay_ms = 0.0;
  double tracked_replay_ms = 0.0;
  double ring_ms = 0.0;
  double ring_iterations = 0.0;
  std::size_t max_hosts = 0;
  std::map<std::string, IterBreakdown> iter;
  for (std::size_t i = 0; i < n; ++i) {
    const Cell& cell = wl.cells[i];
    if (cell.kind == CellKind::kRing) {
      ring_ms += timed[i].host_ms;
      ring_iterations += static_cast<double>(timed[i].worker_iterations);
      continue;
    }
    timed_traced_ms += timed[i].host_ms;
    std::string error;
    ++report.attempted;
    const auto run = drive(cell, spans, error);
    if (!run) {
      fail(error);
      continue;
    }
    const CallResult traced = cell.kind == CellKind::kMultiJob
                                  ? summarize_multi(*run, cell.multi)
                                  : summarize_ps(run->jobs.front().result, cell.config,
                                                 cell.rate_key);
    if (!traced.error.empty()) {
      fail(traced.error);
    } else if (traced.fingerprint != timed[i].fingerprint) {
      fail(cell.label + ": JobRuntime-driven run differs from the driver's "
                        "(simulated time, events or per-worker rates)");
    }

    const std::vector<ps::ClusterConfig> configs = job_configs(cell);
    const net::RebalanceStats& rs = run->rebalance;
    net_stats.rebalances += rs.rebalances;
    net_stats.component_flows += rs.component_flows;
    net_stats.flows_settled += rs.flows_settled;
    net_stats.group_forms += rs.group_forms;
    net_stats.group_dissolves += rs.group_dissolves;
    net_stats.group_fast_events += rs.group_fast_events;
    events += run->events_fired;
    spine_bytes += run->spine_bytes;
    std::size_t hosts = 0;
    for (std::size_t j = 0; j < run->jobs.size(); ++j) {
      const ps::ClusterResult& job = run->jobs[j].result;
      hosts += configs[j].num_workers + configs[j].ps_shards;
      audit_checks += job.audit_checks;
      add_breakdown(job, iter[run->jobs[j].name]);
      for (const auto& w : job.workers) {
        plans += (w.prophet_activated_at.has_value() ? 1 : 0) + w.prophet_replans;
        transfer_records += w.transfers.records().size();
        for (const auto& f : w.transfers.faults()) {
          retries += f.kind == metrics::FaultKind::kTransportRetry ? 1 : 0;
        }
        std::set<std::tuple<int, std::int64_t, std::int64_t>> worker_tasks;
        for (const auto& rec : w.transfers.records()) {
          worker_tasks.insert({static_cast<int>(rec.kind), rec.started.count_nanos(),
                               rec.finished.count_nanos()});
          task_bytes += static_cast<double>(rec.bytes.count());
        }
        tasks += static_cast<double>(worker_tasks.size());
        worker_iterations += static_cast<double>(w.iterations_completed);
      }
    }
    max_hosts = std::max(max_hosts, hosts);

    const ReplayOutcome bare = replay(cell, *run, /*trackers=*/false);
    const ReplayOutcome tracked = replay(cell, *run, /*trackers=*/true);
    replay_ms += bare.ms;
    tracked_replay_ms += tracked.ms;
    check_replay(cell, *run, tracked, report.problems);
  }

  // 4. Single-layer replays.
  const PlannerReplay planners = replay_planners(wl);
  const double bayesopt_us = replay_bayesopt(wl);
  const auto [place_us, interleave_us] = replay_cluster_scheduler(wl);
  const double dispatch_ns = dispatch_ns_per_event(events, std::max<std::size_t>(max_hosts, 1));

  auto& m = report.metrics;
  const double ev = static_cast<double>(std::max<std::uint64_t>(events, 1));
  m.push_back({"sim.events", static_cast<double>(events), "count"});
  m.push_back({"sim.loop_ns_per_event",
               spans.loop_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(spans.loop_events, 1)),
               "ns"});
  m.push_back({"sim.dispatch_ns_per_event", dispatch_ns, "ns"});
  m.push_back({"net.rebalances", static_cast<double>(net_stats.rebalances), "count"});
  m.push_back({"net.component_flows", static_cast<double>(net_stats.component_flows), "count"});
  m.push_back({"net.flows_settled", static_cast<double>(net_stats.flows_settled), "count"});
  m.push_back({"net.settled_per_event", static_cast<double>(net_stats.flows_settled) / ev, "ratio"});
  m.push_back({"net.group_forms", static_cast<double>(net_stats.group_forms), "count"});
  m.push_back({"net.group_dissolves", static_cast<double>(net_stats.group_dissolves), "count"});
  m.push_back({"net.group_fast_events", static_cast<double>(net_stats.group_fast_events), "count"});
  m.push_back({"net.replay_ms", replay_ms, "ms"});
  m.push_back({"net.retries", static_cast<double>(retries), "count"});
  m.push_back({"net.spine_bytes", static_cast<double>(spine_bytes), "bytes"});
  m.push_back({"metrics.tracker_ms", tracked_replay_ms - replay_ms, "ms"});
  m.push_back({"metrics.collect_ms", spans.collect_ms, "ms"});
  m.push_back({"metrics.transfer_records", static_cast<double>(transfer_records), "count"});
  m.push_back({"ps.build_ms", spans.build_ms, "ms"});
  m.push_back({"ps.loop_ms", spans.loop_ms, "ms"});
  m.push_back({"ps.drain_ms", spans.drain_ms, "ms"});
  m.push_back({"ps.tasks_per_iter", tasks / std::max(worker_iterations, 1.0), "count"});
  m.push_back({"ps.bytes_per_iter", task_bytes / std::max(worker_iterations, 1.0), "bytes"});
  m.push_back({"audit.checks", static_cast<double>(audit_checks), "count"});
  m.push_back({"audit.finish_ms", spans.audit_ms, "ms"});
  m.push_back({"core.plans", static_cast<double>(plans), "count"});
  m.push_back({"core.plan_us", planners.plan_us, "us"});
  m.push_back({"core.refine_us", planners.refine_us, "us"});
  m.push_back({"core.refine_moves", planners.refine_moves, "count"});
  m.push_back({"sched.bayesopt_step_us", bayesopt_us, "us"});
  m.push_back({"cluster.place_us", place_us, "us"});
  m.push_back({"cluster.interleave_us", interleave_us, "us"});
  m.push_back({"exec.sweep_efficiency", serial_ms / (2.0 * parallel_ms), "ratio"});
  m.push_back({"allreduce.ms_per_sim_iter", ring_ms / std::max(ring_iterations, 1.0), "ms"});
  for (const auto& [key, name] : ps_strategies()) {
    const IterBreakdown& b = iter[key];
    const double wi = static_cast<double>(std::max<std::size_t>(b.worker_iterations, 1));
    m.push_back({"iter.compute_ms." + key, b.compute_ms / wi, "ms"});
    m.push_back({"iter.gpu_idle_ms." + key, b.idle_ms / wi, "ms"});
    m.push_back({"iter.grad_wait_ms_p50." + key, percentile(b.waits_ms, 0.50), "ms"});
    m.push_back({"iter.grad_wait_ms_p99." + key, percentile(b.waits_ms, 0.99), "ms"});
    m.push_back({"iter.push_ms." + key, b.push_ms / wi, "ms"});
    m.push_back({"iter.pull_ms." + key, b.pull_ms / wi, "ms"});
  }
  m.push_back({"trace.overhead_ms", spans.total_ms() - timed_traced_ms, "ms"});
  return report;
}

}  // namespace prophet::perfbench
