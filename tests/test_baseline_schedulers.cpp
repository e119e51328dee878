#include <gtest/gtest.h>

#include "sched/bytescheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/p3.hpp"
#include "task_helper.hpp"

namespace prophet::sched {
namespace {

using namespace prophet::literals;

TimePoint at(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

TEST(Fifo, TransfersWholeTensorsInArrivalOrder) {
  FifoScheduler fifo{TaskKind::kPush};
  fifo.enqueue(7, Bytes::mib(2), at(0));
  fifo.enqueue(3, Bytes::mib(1), at(1));
  fifo.enqueue(0, Bytes::kib(4), at(2));

  auto t1 = take_task(fifo, at(3));
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->items.size(), 1u);
  EXPECT_EQ(t1->items[0].grad, 7u);  // arrival order, NOT priority
  EXPECT_EQ(t1->total_bytes(), Bytes::mib(2));
  EXPECT_TRUE(t1->items[0].last_slice);

  EXPECT_EQ(take_task(fifo, at(3))->items[0].grad, 3u);
  EXPECT_EQ(take_task(fifo, at(3))->items[0].grad, 0u);
  EXPECT_FALSE(take_task(fifo, at(3)).has_value());
  EXPECT_FALSE(fifo.has_pending());
}

TEST(Fifo, BlockingAckAppliedToTasks) {
  FifoScheduler fifo{TaskKind::kPush, 2_ms};
  fifo.enqueue(1, Bytes::mib(1), at(0));
  EXPECT_EQ(take_task(fifo, at(0))->post_delay, 2_ms);
}

TEST(Fifo, KindPropagates) {
  FifoScheduler pull{TaskKind::kPull};
  pull.enqueue(1, Bytes::mib(1), at(0));
  EXPECT_EQ(take_task(pull, at(0))->kind, TaskKind::kPull);
}

TEST(P3, OnePartitionPerTask) {
  P3Scheduler p3{TaskKind::kPush, Bytes::mib(4)};
  p3.enqueue(2, Bytes::mib(10), at(0));
  auto t1 = take_task(p3, at(0));
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->items.size(), 1u);
  EXPECT_EQ(t1->total_bytes(), Bytes::mib(4));
  auto t2 = take_task(p3, at(0));
  EXPECT_EQ(t2->items[0].offset, Bytes::mib(4));
  auto t3 = take_task(p3, at(0));
  EXPECT_EQ(t3->total_bytes(), Bytes::mib(2));
  EXPECT_TRUE(t3->items[0].last_slice);
  EXPECT_FALSE(take_task(p3, at(0)).has_value());
}

TEST(P3, StrictPriorityPreemption) {
  P3Scheduler p3{TaskKind::kPush, Bytes::mib(4)};
  p3.enqueue(5, Bytes::mib(12), at(0));
  (void)take_task(p3, at(0));          // one partition of gradient 5 sent
  p3.enqueue(1, Bytes::mib(4), at(1));  // higher priority arrives
  EXPECT_EQ(take_task(p3, at(1))->items[0].grad, 1u);
  EXPECT_EQ(take_task(p3, at(1))->items[0].grad, 5u);
}

TEST(ByteScheduler, GroupsUpToCreditAcrossTensors) {
  ByteSchedulerConfig cfg;
  cfg.partition_bytes = Bytes::mib(1);
  cfg.credit_bytes = Bytes::mib(3);
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  bs.enqueue(4, Bytes::mib(2), at(0));
  bs.enqueue(9, Bytes::mib(2), at(0));
  auto t1 = take_task(bs, at(0));
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->total_bytes(), Bytes::mib(3));
  EXPECT_EQ(t1->items.size(), 3u);
  EXPECT_EQ(t1->items[0].grad, 4u);
  EXPECT_EQ(t1->items[2].grad, 9u);  // crosses tensors in priority order
  auto t2 = take_task(bs, at(0));
  EXPECT_EQ(t2->total_bytes(), Bytes::mib(1));
  EXPECT_FALSE(take_task(bs, at(0)).has_value());
}

TEST(ByteScheduler, CreditAckDelayOnTasks) {
  ByteSchedulerConfig cfg;
  cfg.credit_ack_delay = 700_us;
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  bs.enqueue(0, Bytes::mib(1), at(0));
  EXPECT_EQ(take_task(bs, at(0))->post_delay, 700_us);
}

TEST(ByteScheduler, FixedCreditWithoutAutotune) {
  ByteSchedulerScheduler bs{TaskKind::kPush, {}};
  const Bytes before = bs.credit_bytes();
  for (std::size_t i = 0; i < 30; ++i) {
    bs.on_iteration_end(i, at(static_cast<std::int64_t>(100 * i)));
  }
  EXPECT_EQ(bs.credit_bytes(), before);
}

TEST(ByteScheduler, AutotuneAdjustsCreditAcrossEpisodes) {
  ByteSchedulerConfig cfg;
  cfg.autotune = true;
  cfg.tune_interval_iters = 2;
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  const Bytes initial = bs.credit_bytes();
  bool changed = false;
  for (std::size_t i = 0; i < 20; ++i) {
    bs.on_iteration_end(i, at(static_cast<std::int64_t>(100 * (i + 1))));
    if (bs.credit_bytes() != initial) changed = true;
  }
  EXPECT_TRUE(changed);
  EXPECT_GE(bs.credit_bytes(), cfg.partition_bytes);
  EXPECT_LE(bs.credit_bytes().count(), cfg.credit_max.count());
}

TEST(ByteScheduler, PreemptionWithinCreditGranularity) {
  ByteSchedulerConfig cfg;
  cfg.partition_bytes = Bytes::mib(1);
  cfg.credit_bytes = Bytes::mib(2);
  ByteSchedulerScheduler bs{TaskKind::kPush, cfg};
  bs.enqueue(8, Bytes::mib(6), at(0));
  (void)take_task(bs, at(0));  // 2 MiB of gradient 8 in flight
  bs.enqueue(0, Bytes::mib(1), at(1));
  const auto next = take_task(bs, at(1));
  // Gradient 0 leads the next credit group.
  EXPECT_EQ(next->items[0].grad, 0u);
  EXPECT_EQ(next->items[1].grad, 8u);
}

}  // namespace
}  // namespace prophet::sched
