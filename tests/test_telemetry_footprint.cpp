// Memory gate for pay-for-use telemetry: a run's metric storage must follow
// what the simulation writes, not the configured metrics horizon. Peak RSS is
// a machine-independent number, so unlike a timing it can be gated exactly.
//
// A forked child runs the bench/scale star_1024 cell (fifo, toy_cnn b32,
// 3 iterations, 3600 s horizon); the parent reads the child's own peak
// resident set from wait4(). With per-worker series sized by the horizon
// (3 x 14400 bins, plus result copies) this cell peaked near 700 MB; storing
// only the bins written brings it to a few tens of MB.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>

#include "dnn/model_zoo.hpp"
#include "ps/cluster.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PROPHET_RSS_SKEWED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PROPHET_RSS_SKEWED 1
#endif

namespace prophet::ps {
namespace {

constexpr std::size_t kWorkers = 1024;
constexpr std::size_t kIterations = 3;
constexpr long kPeakLimitKib = 128L * 1024;

ClusterConfig star_1024() {
  ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = kWorkers;
  cfg.batch = 32;
  cfg.iterations = kIterations;
  cfg.seed = 42;
  cfg.worker_bandwidth = Bandwidth::gbps(1);
  cfg.ps_bandwidth = Bandwidth::gbps(10);
  cfg.strategy = StrategyConfig::fifo();
  cfg.metrics_horizon = Duration::seconds(3600);
  return cfg;
}

TEST(TelemetryFootprint, Star1024PeakRssStaysSmallAtLongHorizon) {
#ifdef PROPHET_RSS_SKEWED
  GTEST_SKIP() << "sanitizer shadow memory skews resident-set sizes";
#endif
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    const ClusterResult result = run_cluster(star_1024(), 1);
    bool finished = result.workers.size() == kWorkers;
    for (const auto& w : result.workers) {
      finished = finished && w.iterations_completed == kIterations;
    }
    _exit(finished ? 0 : 1);
  }
  int status = 0;
  rusage usage{};
  ASSERT_EQ(wait4(child, &status, 0, &usage), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit normally";
  ASSERT_EQ(WEXITSTATUS(status), 0) << "star_1024 did not finish training";
  // Linux reports ru_maxrss in KiB.
  EXPECT_LT(usage.ru_maxrss, kPeakLimitKib)
      << "star_1024 peaked at " << usage.ru_maxrss / 1024 << " MiB";
}

}  // namespace
}  // namespace prophet::ps
