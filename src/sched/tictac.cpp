#include "sched/tictac.hpp"

namespace prophet::sched {

TicTacScheduler::TicTacScheduler(TaskKind kind, Duration blocking_ack)
    : CommScheduler{kind}, blocking_ack_{blocking_ack} {}

void TicTacScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  queue_.add(grad, bytes);
}

bool TicTacScheduler::fill_task(TimePoint, TransferTask& task) {
  if (queue_.empty()) return false;
  // A zero budget pops exactly the most urgent tensor.
  queue_.pop(Bytes::zero(), task.items);
  task.post_delay = blocking_ack_;
  return true;
}

void TicTacScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::sched
