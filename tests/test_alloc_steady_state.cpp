// Steady-state allocation gate for the transfer path: once a run is warm, a
// scheduler task must move from scheduler to NIC to completion without
// touching the heap. Allocation counts are machine-independent, so unlike a
// timing they can be gated exactly.
//
// A counting global operator new tallies every allocation of one run at N
// and one at 2N iterations (ResNet50, batch 64, 4 workers); the difference
// divided by the extra worker-iterations is the steady-state cost of one
// worker-iteration. Setup (model, fabric, schedulers, per-key tables) is
// identical in both runs and cancels out.
//
// With one heap map node per queued partition, a vector per scheduler task,
// a copied item vector per sub-flow closure, a std::map of gradient groups
// per backward pass and heap-stored closures, this cost was 1466-2559
// allocations per worker-iteration (322 for TicTac and MG-WFBP, with one
// std::map node per queued tensor). With reused task buffers, a flat
// partition queue and closures that fit std::function's inline buffer, fifo,
// p3, bytescheduler and prophet measure 0.67 (32 extra allocations over 48
// extra worker-iterations, all amortized growth of telemetry series); the
// bound keeps under 2x headroom over that.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "dnn/model_zoo.hpp"
#include "ps/cluster.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PROPHET_ALLOC_HOOKED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PROPHET_ALLOC_HOOKED 1
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The sanitizers install their own allocator; replacing operator new under
// them would bypass their bookkeeping, so the hook exists only in plain builds.
#ifndef PROPHET_ALLOC_HOOKED
namespace {

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace prophet::ps {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kIterations = 12;
// Allocations per steady-state worker-iteration.
constexpr double kPerWorkerIterationLimit = 1.25;

ClusterConfig resnet50_b64(StrategyConfig strategy, std::size_t iterations) {
  ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = kWorkers;
  cfg.batch = 64;
  cfg.iterations = iterations;
  cfg.seed = 7;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  return cfg;
}

std::size_t allocations_of_run(const StrategyConfig& strategy, std::size_t iterations) {
  const ClusterConfig cfg = resnet50_b64(strategy, iterations);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const ClusterResult result = run_cluster(cfg);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(result.workers.size(), kWorkers);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations_completed, iterations);
  }
  return after - before;
}

class SteadyStateAllocations : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyStateAllocations, PerWorkerIterationStaysSmall) {
#ifdef PROPHET_ALLOC_HOOKED
  GTEST_SKIP() << "sanitizer allocators replace the counting operator new";
#endif
  const auto strategy = StrategyConfig::from_name(GetParam());
  ASSERT_TRUE(strategy.has_value());
  const std::size_t short_run = allocations_of_run(*strategy, kIterations);
  const std::size_t long_run = allocations_of_run(*strategy, 2 * kIterations);
  ASSERT_GE(long_run, short_run);
  const double per_worker_iteration =
      static_cast<double>(long_run - short_run) /
      static_cast<double>(kWorkers * kIterations);
  EXPECT_LT(per_worker_iteration, kPerWorkerIterationLimit)
      << GetParam() << ": " << short_run << " allocations at " << kIterations
      << " iterations, " << long_run << " at " << 2 * kIterations;
}

INSTANTIATE_TEST_SUITE_P(Strategies, SteadyStateAllocations,
                         ::testing::Values("fifo", "p3", "bytescheduler", "prophet",
                                           "tictac", "mg-wfbp"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           // Test names allow only alphanumerics and '_'.
                           std::string name{param.param};
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace prophet::ps
