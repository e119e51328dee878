// Test-side convenience over CommScheduler::next_task: returns the next task
// by value (nullopt when the scheduler stays idle), so assertions can chain
// off it. Production callers keep one task buffer and call next_task()
// directly.
#pragma once

#include <optional>

#include "sched/scheduler.hpp"

namespace prophet::sched {

inline std::optional<TransferTask> take_task(CommScheduler& scheduler, TimePoint now) {
  TransferTask task;
  if (!scheduler.next_task(now, task)) return std::nullopt;
  return task;
}

}  // namespace prophet::sched
