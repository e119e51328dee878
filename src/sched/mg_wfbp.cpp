#include "sched/mg_wfbp.hpp"

#include "common/check.hpp"

namespace prophet::sched {

MgWfbpScheduler::MgWfbpScheduler(TaskKind kind, MgWfbpConfig config)
    : CommScheduler{kind}, config_{config} {
  PROPHET_CHECK(config_.merge_bytes.count() > 0);
  PROPHET_CHECK(config_.max_delay >= Duration::zero());
}

void MgWfbpScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint now) {
  buffer_.add(grad, bytes);
  if (grad >= enqueued_.size()) enqueued_.resize(grad + 1);
  enqueued_[grad] = now;
}

bool MgWfbpScheduler::fill_task(TimePoint now, TransferTask& task) {
  if (buffer_.empty()) return false;
  // Merge condition: enough bytes buffered, or the most urgent buffered
  // tensor has waited long enough that holding it back costs more than the
  // startup saving.
  const bool size_ready = buffer_.queued_bytes() >= config_.merge_bytes;
  const bool age_ready = now - enqueued_[buffer_.head_grad()] >= config_.max_delay;
  if (!size_ready && !age_ready) return false;

  Bytes taken{};  // a zero budget pops exactly one whole tensor
  while (!buffer_.empty() && taken < config_.merge_bytes) {
    buffer_.pop(Bytes::zero(), task.items);
    taken += task.items.back().bytes;
  }
  return true;
}

void MgWfbpScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::sched
