// TicTac (Hashemi et al., MLSys'19): schedules network operations in the
// order the downstream computation needs them — here, whole tensors in
// strict priority order, without slicing. Compared to P3 it avoids the
// small-partition overhead; compared to FIFO it fixes the ordering; but a
// large low-priority tensor already in flight still blocks an urgent one
// for its full transfer time, and each operation is a blocking call
// (Sec. 6.1 of the paper groups TicTac with P3 on that point).
#pragma once

#include <map>

#include "sched/scheduler.hpp"

namespace prophet::sched {

class TicTacScheduler final : public CommScheduler {
 public:
  explicit TicTacScheduler(TaskKind kind,
                           Duration blocking_ack = Duration::micros(1500));

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  void on_task_done(const TransferTask& task, TimePoint started,
                    TimePoint finished) override;
  void on_recovery(TimePoint) override { queue_.clear(); }
  [[nodiscard]] bool has_pending() const override { return !queue_.empty(); }
  [[nodiscard]] std::string name() const override { return "tictac"; }

 private:
  bool fill_task(TimePoint now, TransferTask& task) override;

  Duration blocking_ack_;
  // Whole tensors keyed by priority.
  std::map<std::size_t, Bytes> queue_;
};

}  // namespace prophet::sched
