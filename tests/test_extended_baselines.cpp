// Unit tests for the related-work baselines added beyond the paper's core
// comparison set: TicTac (op-order priority) and MG-WFBP (static gradient
// merging).
#include <gtest/gtest.h>

#include "sched/mg_wfbp.hpp"
#include "sched/tictac.hpp"
#include "task_helper.hpp"

namespace prophet::sched {
namespace {

using namespace prophet::literals;

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

TEST(TicTac, WholeTensorsInPriorityOrder) {
  TicTacScheduler tictac{TaskKind::kPush};
  tictac.enqueue(7, Bytes::mib(2), at(0));
  tictac.enqueue(3, Bytes::mib(1), at(1));
  tictac.enqueue(9, Bytes::kib(8), at(1));
  EXPECT_EQ(take_task(tictac, at(2))->items[0].grad, 3u);
  EXPECT_EQ(take_task(tictac, at(2))->items[0].grad, 7u);
  EXPECT_EQ(take_task(tictac, at(2))->items[0].grad, 9u);
  EXPECT_FALSE(take_task(tictac, at(2)).has_value());
}

TEST(TicTac, NoSlicing) {
  TicTacScheduler tictac{TaskKind::kPush};
  tictac.enqueue(0, Bytes::mib(64), at(0));
  const auto task = take_task(tictac, at(0));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->items.size(), 1u);
  EXPECT_EQ(task->total_bytes(), Bytes::mib(64));
  EXPECT_TRUE(task->items[0].last_slice);
}

TEST(TicTac, UrgentArrivalPreemptsAtTaskBoundary) {
  TicTacScheduler tictac{TaskKind::kPush};
  tictac.enqueue(5, Bytes::mib(4), at(0));
  (void)take_task(tictac, at(0));
  tictac.enqueue(6, Bytes::mib(4), at(1));
  tictac.enqueue(0, Bytes::kib(4), at(2));
  EXPECT_EQ(take_task(tictac, at(2))->items[0].grad, 0u);
}

TEST(TicTac, BlockingAckCarried) {
  TicTacScheduler tictac{TaskKind::kPush, 2_ms};
  tictac.enqueue(0, Bytes::mib(1), at(0));
  EXPECT_EQ(take_task(tictac, at(0))->post_delay, 2_ms);
}

TEST(TicTacDeath, DoubleEnqueueAborts) {
  TicTacScheduler tictac{TaskKind::kPush};
  tictac.enqueue(1, Bytes::mib(1), at(0));
  EXPECT_DEATH(tictac.enqueue(1, Bytes::mib(1), at(1)), "enqueued twice");
}

TEST(MgWfbp, WaitsForMergeThreshold) {
  MgWfbpConfig cfg;
  cfg.merge_bytes = Bytes::mib(4);
  cfg.max_delay = 100_ms;
  MgWfbpScheduler mg{TaskKind::kPush, cfg};
  mg.enqueue(9, Bytes::mib(1), at(0));
  mg.enqueue(8, Bytes::mib(1), at(0));
  EXPECT_FALSE(take_task(mg, at(0)).has_value());  // below threshold, not aged
  EXPECT_TRUE(mg.has_pending());
  mg.enqueue(7, Bytes::mib(2), at(1));
  const auto task = take_task(mg, at(1));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->total_bytes(), Bytes::mib(4));
  EXPECT_EQ(task->items.size(), 3u);
  EXPECT_EQ(task->items[0].grad, 7u);  // priority order inside the merge
}

TEST(MgWfbp, AgeTriggerFlushesPartialMerge) {
  MgWfbpConfig cfg;
  cfg.merge_bytes = Bytes::mib(64);
  cfg.max_delay = 5_ms;
  MgWfbpScheduler mg{TaskKind::kPush, cfg};
  mg.enqueue(3, Bytes::mib(1), at(0));
  EXPECT_FALSE(take_task(mg, at(4)).has_value());
  const auto task = take_task(mg, at(5));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->items[0].grad, 3u);
  EXPECT_FALSE(mg.has_pending());
}

TEST(MgWfbp, MergeStopsAtThreshold) {
  MgWfbpConfig cfg;
  cfg.merge_bytes = Bytes::mib(2);
  MgWfbpScheduler mg{TaskKind::kPush, cfg};
  for (std::size_t g = 0; g < 5; ++g) mg.enqueue(g, Bytes::mib(1), at(0));
  const auto first = take_task(mg, at(0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->items.size(), 2u);
  EXPECT_EQ(first->items[0].grad, 0u);
  const auto second = take_task(mg, at(0));
  EXPECT_EQ(second->items[0].grad, 2u);
}

TEST(MgWfbp, AgeOfMostUrgentGoverns) {
  MgWfbpConfig cfg;
  cfg.merge_bytes = Bytes::mib(64);
  cfg.max_delay = 10_ms;
  MgWfbpScheduler mg{TaskKind::kPush, cfg};
  mg.enqueue(9, Bytes::mib(1), at(0));
  mg.enqueue(1, Bytes::mib(1), at(8));  // more urgent but younger
  // At 10 ms: gradient 1 (head of the buffer) is only 2 ms old -> hold.
  EXPECT_FALSE(take_task(mg, at(10)).has_value());
  // At 18 ms the head has aged past max_delay -> flush everything buffered.
  const auto task = take_task(mg, at(18));
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->items.size(), 2u);
}

}  // namespace
}  // namespace prophet::sched
