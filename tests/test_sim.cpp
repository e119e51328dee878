#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace prophet::sim {
namespace {

using namespace prophet::literals;

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30_ms, [&] { order.push_back(3); });
  sim.schedule_after(10_ms, [&] { order.push_back(1); });
  sim.schedule_after(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().to_millis(), 30.0);
}

TEST(Simulator, StableOrderForSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(1_ms, chain);
  };
  sim.schedule_after(1_ms, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now().to_millis(), 5.0);
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator sim;
  bool inner = false;
  sim.schedule_after(2_ms, [&] {
    sim.schedule_after(0_ms, [&] {
      inner = true;
      EXPECT_DOUBLE_EQ(sim.now().to_millis(), 2.0);
    });
  });
  sim.run();
  EXPECT_TRUE(inner);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule_after(5_ms, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  EventHandle handle = sim.schedule_after(1_ms, [&] { ++count; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(10_ms, [&] { order.push_back(1); });
  sim.schedule_after(20_ms, [&] { order.push_back(2); });
  sim.schedule_after(30_ms, [&] { order.push_back(3); });
  sim.run_until(TimePoint::origin() + 20_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // event at exactly the deadline fires
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(1_ms, [&] { ++count; });
  sim.schedule_after(2_ms, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsLiveEvents) {
  Simulator sim;
  auto h1 = sim.schedule_after(1_ms, [] {});
  auto h2 = sim.schedule_after(2_ms, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  h1.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  (void)h2;
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_fired(), 1u);
}

// --- end-of-instant hooks ---------------------------------------------------

// The hook waits for every record at its instant, including ones scheduled
// during the instant (after the hook was queued), and runs before the clock
// moves on.
TEST(SimulatorInstantEnd, RunsAfterEverySameInstantRecord) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(5_ms, [&] {
    order.push_back(1);
    sim.at_instant_end([&] {
      order.push_back(9);
      EXPECT_DOUBLE_EQ(sim.now().to_millis(), 5.0);
    });
    sim.schedule_after(0_ms, [&] {
      order.push_back(3);
      sim.schedule_after(0_ms, [&] { order.push_back(4); });
    });
  });
  sim.schedule_after(5_ms, [&] { order.push_back(2); });
  sim.schedule_after(6_ms, [&] { order.push_back(10); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 9, 10}));
}

// A hook that schedules a zero-delay record reopens the instant: the record
// fires at the same time, and a hook it queues gets a second round there.
TEST(SimulatorInstantEnd, ZeroDelayRecordFromHookGetsSecondRound) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(2_ms, [&] {
    sim.at_instant_end([&] {
      order.push_back(1);
      sim.schedule_after(0_ms, [&] {
        order.push_back(2);
        sim.at_instant_end([&] {
          order.push_back(3);
          EXPECT_DOUBLE_EQ(sim.now().to_millis(), 2.0);
        });
      });
    });
  });
  sim.schedule_after(3_ms, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorInstantEnd, RunUntilReturnsWithNoHookPending) {
  Simulator sim;
  int hooks = 0;
  sim.schedule_after(10_ms, [&] { sim.at_instant_end([&] { ++hooks; }); });
  sim.schedule_after(20_ms, [&] { sim.at_instant_end([&] { ++hooks; }); });
  sim.run_until(TimePoint::origin() + 10_ms);
  EXPECT_EQ(hooks, 1);
  EXPECT_DOUBLE_EQ(sim.now().to_millis(), 10.0);
  // Queued between runs, with the next record in the future: the instant is
  // already over, so the next call runs the hook before advancing.
  sim.at_instant_end([&] {
    ++hooks;
    EXPECT_DOUBLE_EQ(sim.now().to_millis(), 10.0);
  });
  sim.run_until(TimePoint::origin() + 15_ms);
  EXPECT_EQ(hooks, 2);
  sim.run();
  EXPECT_EQ(hooks, 3);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorInstantEnd, StepNeverAdvancesPastAPendingHook) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(1_ms, [&] {
    order.push_back(1);
    sim.at_instant_end([&] { order.push_back(2); });
  });
  sim.schedule_after(1_ms, [&] { order.push_back(3); });
  sim.schedule_after(4_ms, [&] { order.push_back(4); });
  // The first record leaves its instant open, so the hook stays queued.
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(sim.empty());
  // The second closes it: the hook runs before step() returns.
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(sim.now().to_millis(), 1.0);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorInstantEnd, InvisibleToEventCounters) {
  Simulator sim;
  int hooks = 0;
  sim.schedule_after(1_ms, [&] {
    sim.at_instant_end([&] { ++hooks; });
    EXPECT_EQ(sim.pending_events(), 0u);
  });
  const HookId withdrawn = sim.at_instant_end([&] { hooks += 100; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel_instant_end(withdrawn);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorDeath, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.schedule_after(10_ms, [&] {
    EXPECT_DEATH(sim.schedule_at(TimePoint::origin() + 5_ms, [] {}),
                 "scheduling into the past");
  });
  sim.run();
}

}  // namespace
}  // namespace prophet::sim
