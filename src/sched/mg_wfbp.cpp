#include "sched/mg_wfbp.hpp"

#include "common/check.hpp"

namespace prophet::sched {

MgWfbpScheduler::MgWfbpScheduler(TaskKind kind, MgWfbpConfig config)
    : CommScheduler{kind}, config_{config} {
  PROPHET_CHECK(config_.merge_bytes.count() > 0);
  PROPHET_CHECK(config_.max_delay >= Duration::zero());
}

void MgWfbpScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint now) {
  PROPHET_CHECK(bytes.count() > 0);
  const bool inserted = buffer_.emplace(grad, Entry{bytes, now}).second;
  PROPHET_CHECK_MSG(inserted, "tensor enqueued twice");
  buffered_ += bytes;
}

bool MgWfbpScheduler::fill_task(TimePoint now, TransferTask& task) {
  if (buffer_.empty()) return false;
  // Merge condition: enough bytes buffered, or the most urgent buffered
  // tensor has waited long enough that holding it back costs more than the
  // startup saving.
  const bool size_ready = buffered_ >= config_.merge_bytes;
  const bool age_ready = now - buffer_.begin()->second.enqueued >= config_.max_delay;
  if (!size_ready && !age_ready) return false;

  Bytes taken{};
  auto it = buffer_.begin();
  while (it != buffer_.end() && taken < config_.merge_bytes) {
    task.items.push_back(
        TransferItem{it->first, Bytes::zero(), it->second.bytes, true});
    taken += it->second.bytes;
    it = buffer_.erase(it);
  }
  buffered_ -= taken;
  return true;
}

void MgWfbpScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::sched
