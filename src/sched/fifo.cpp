#include "sched/fifo.hpp"

#include <cstddef>

namespace prophet::sched {

void FifoScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  if (head_ > 0 && queue_.size() == queue_.capacity()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  queue_.push_back(Entry{grad, bytes});
}

bool FifoScheduler::fill_task(TimePoint, TransferTask& task) {
  if (!has_pending()) return false;
  const Entry entry = queue_[head_++];
  task.items.push_back(
      TransferItem{entry.grad, Bytes::zero(), entry.bytes, /*last_slice=*/true});
  task.post_delay = blocking_ack_;
  return true;
}

void FifoScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::sched
