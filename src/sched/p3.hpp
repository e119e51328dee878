// P3 (Jayarajan et al., MLSys'19): priority-based parameter propagation.
// Every tensor is sliced into fixed-size partitions; partitions transfer
// strictly most-urgent-first, one partition per network operation, each a
// blocking call acknowledged by the server before the next starts (the
// paper, Sec. 6.1: P3 "relies on the blocking call of TCP protocol"). Fine
// slicing buys fast preemption at the price of per-transfer overhead — the
// trade-off the paper's Fig. 3(a) and Table 2 probe.
#pragma once

#include "sched/partition_queue.hpp"
#include "sched/scheduler.hpp"

namespace prophet::sched {

class P3Scheduler final : public CommScheduler {
 public:
  // The paper's evaluation sets the partition size to 4 MB (Sec. 5.1).
  P3Scheduler(TaskKind kind, Bytes partition_bytes = Bytes::mib(4),
              Duration blocking_ack = Duration::micros(1500));

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  void on_task_done(const TransferTask& task, TimePoint started,
                    TimePoint finished) override;
  void on_recovery(TimePoint) override { queue_.clear(); }
  [[nodiscard]] bool has_pending() const override { return !queue_.empty(); }
  [[nodiscard]] std::string name() const override { return "p3"; }
  [[nodiscard]] Bytes partition_bytes() const { return queue_.partition_bytes(); }

 private:
  bool fill_task(TimePoint now, TransferTask& task) override;

  PartitionQueue queue_;
  Duration blocking_ack_;
};

}  // namespace prophet::sched
