#include "sched/tictac.hpp"

#include "common/check.hpp"

namespace prophet::sched {

TicTacScheduler::TicTacScheduler(TaskKind kind, Duration blocking_ack)
    : CommScheduler{kind}, blocking_ack_{blocking_ack} {}

void TicTacScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  PROPHET_CHECK(bytes.count() > 0);
  const bool inserted = queue_.emplace(grad, bytes).second;
  PROPHET_CHECK_MSG(inserted, "tensor enqueued twice");
}

bool TicTacScheduler::fill_task(TimePoint, TransferTask& task) {
  if (queue_.empty()) return false;
  const auto it = queue_.begin();
  task.items.push_back(
      TransferItem{it->first, Bytes::zero(), it->second, /*last_slice=*/true});
  task.post_delay = blocking_ack_;
  queue_.erase(it);
  return true;
}

void TicTacScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::sched
