#include "sched/p3.hpp"

namespace prophet::sched {

P3Scheduler::P3Scheduler(TaskKind kind, Bytes partition_bytes, Duration blocking_ack)
    : CommScheduler{kind}, queue_{partition_bytes}, blocking_ack_{blocking_ack} {}

void P3Scheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  queue_.add(grad, bytes);
}

bool P3Scheduler::fill_task(TimePoint, TransferTask& task) {
  if (queue_.empty()) return false;
  // Budget of one byte still pops exactly one partition: P3's granularity.
  queue_.pop(Bytes::of(1), task.items);
  task.post_delay = blocking_ack_;
  return true;
}

void P3Scheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::sched
