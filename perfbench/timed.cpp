// Timed run: the end-to-end metrics, measured with tracing off and through
// the public drivers only.
//
//   warm-up — one untimed serial round of every cell; its fingerprints
//             become the workload's expected ones for this seed, and the
//             process's peak resident memory after it is peak_rss_mb;
//   set-up  — build the workload (models, dynamics plans, configs,
//             placement) and construct every cell's runtime without
//             starting it; repeated, median reported as setup_s;
//   rounds  — every cell once per round until the time is up; each call is
//             checked against its expected fingerprint.
//
// Host times are scaled by the calibration kernel timed around them.
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "exec/executor.hpp"

namespace prophet::perfbench {
namespace {

// Runs every cell once (through exec::run_sweep when `threads` > 1) and
// returns the calls' outcomes in cell order.
std::vector<CallResult> run_round(const Workload& wl, unsigned threads) {
  std::vector<CallResult> results(wl.cells.size());
  auto call = [&](std::size_t i) {
    const double t0 = now_ms();
    results[i] = run_cell(wl.cells[i]);
    results[i].host_ms = now_ms() - t0;
  };
  if (threads <= 1) {
    for (std::size_t i = 0; i < wl.cells.size(); ++i) call(i);
    return results;
  }
  std::ostringstream sink;
  exec::run_sweep(
      wl.cells.size(),
      [&](std::size_t i) {
        call(i);
        return exec::CellResult{{}, results[i].error.empty()};
      },
      sink, threads);
  return results;
}

// Builds the workload and constructs every cell's runtime; returns seconds.
double set_up_once(const std::string& name, std::uint64_t seed, Workload& out) {
  const double t0 = now_ms();
  Workload wl = make_workload(name, seed);
  for (const Cell& cell : wl.cells) {
    const Runtime runtime{cell};
  }
  const double seconds = (now_ms() - t0) / 1e3;
  out = std::move(wl);
  return seconds;
}

}  // namespace

RunReport run_timed(const std::string& workload, std::uint64_t seed,
                    double seconds) {
  RunReport report;
  // Scale for an interval between two kernel runs.
  auto scale = [](double before_ms, double after_ms) {
    return kReferenceMs / std::sqrt(before_ms * after_ms);
  };

  Workload wl = make_workload(workload, seed);
  auto check = [&](const std::vector<CallResult>& results,
                   const std::vector<std::uint64_t>* expected) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++report.attempted;
      std::string error = results[i].error;
      if (error.empty() && expected != nullptr &&
          results[i].fingerprint != (*expected)[i]) {
        error = wl.cells[i].label + ": simulated fingerprint differs from the "
                                    "workload's expected one";
      }
      if (!error.empty()) {
        ++report.failed;
        if (report.problems.size() < 10) report.problems.push_back(error);
      }
    }
  };

  // The warm-up runs serially and before anything else allocates (the
  // calibration kernel's table included), so the peak is the largest single
  // call's footprint rather than whichever calls a sweep happened to overlap.
  const std::vector<CallResult> reference = run_round(wl, 1);
  const double peak_mb = peak_rss_mb();
  check(reference, nullptr);
  std::vector<std::uint64_t> expected;
  for (const auto& r : reference) expected.push_back(r.fingerprint);

  // Set-up: at least five repetitions and at least a second of them.
  std::vector<double> setups;
  double cal_ms = calibration_kernel_ms();
  const double setup_start = now_ms();
  while (setups.size() < 5 ||
         (now_ms() - setup_start < 1000.0 && setups.size() < 2000)) {
    setups.push_back(set_up_once(workload, seed, wl));
  }
  double next_cal_ms = calibration_kernel_ms();
  const double setup_scale = scale(cal_ms, next_cal_ms);
  cal_ms = next_cal_ms;

  std::vector<double> ms_per_iter;
  const double start = now_ms();
  double round_ms = 0.0;
  do {
    const double t0 = now_ms();
    const std::vector<CallResult> results = run_round(wl, wl.threads);
    round_ms = now_ms() - t0;
    next_cal_ms = calibration_kernel_ms();
    check(results, &expected);
    std::size_t iterations = 0;
    double call_ms = 0.0;
    for (const auto& r : results) {
      iterations += r.worker_iterations;
      call_ms += r.host_ms;
    }
    const double measured = call_ms / static_cast<double>(iterations);
    ms_per_iter.push_back(measured * scale(cal_ms, next_cal_ms));
    std::fprintf(stderr,
                 "round %zu: %.6f ms per simulated iteration (%.6f measured, "
                 "kernel %.1f ms)\n",
                 ms_per_iter.size(), ms_per_iter.back(), measured, next_cal_ms);
    cal_ms = next_cal_ms;
  } while (now_ms() - start + round_ms <= seconds * 1e3);

  // Simulated metrics come from the reference round; every timed call
  // reproduced its fingerprint, so they hold for all of them.
  std::map<std::string, std::vector<double>> rates;
  double makespan_s = 0.0;
  for (const auto& r : reference) {
    for (const auto& [key, rate] : r.rates) rates[key].push_back(rate);
    makespan_s += r.makespan_s;
  }
  for (const auto& key : rate_keys()) {
    report.metrics.push_back(
        {"sim_samples_per_s." + key, geomean(rates[key]), "samples/s"});
  }
  report.metrics.push_back({"sim_makespan_s", makespan_s, "s"});
  report.metrics.push_back(
      {"engine_ms_per_sim_iter", median(ms_per_iter), "ms"});
  report.metrics.push_back({"setup_s", median(setups) * setup_scale, "s"});
  report.metrics.push_back({"peak_rss_mb", peak_mb, "MiB"});

  std::fprintf(stderr, "timed %s: %zu set-ups (scale %.3f), %zu rounds\n",
               workload.c_str(), setups.size(), setup_scale, ms_per_iter.size());
  return report;
}

}  // namespace prophet::perfbench
