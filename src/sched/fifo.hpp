// Default MXNet behaviour (the paper's baseline): whole tensors transferred
// in generation order, no priority, no slicing. WFBP overlap still applies
// because the engine enqueues gradients as backward produces them. Each
// key's send is a blocking KVStore call: the next send waits for the
// server-side acknowledgment (`blocking_ack`), the cost the paper pins on
// the conventional frameworks (Secs. 2.2, 6.1).
#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace prophet::sched {

class FifoScheduler final : public CommScheduler {
 public:
  explicit FifoScheduler(TaskKind kind,
                         Duration blocking_ack = Duration::micros(1500))
      : CommScheduler{kind}, blocking_ack_{blocking_ack} {}

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  void on_task_done(const TransferTask& task, TimePoint started,
                    TimePoint finished) override;
  void on_recovery(TimePoint) override {
    queue_.clear();
    head_ = 0;
  }
  [[nodiscard]] bool has_pending() const override { return head_ < queue_.size(); }
  [[nodiscard]] std::string name() const override { return "fifo"; }

 private:
  bool fill_task(TimePoint now, TransferTask& task) override;

  struct Entry {
    std::size_t grad;
    Bytes bytes;
  };
  Duration blocking_ack_;
  // Arrival-ordered entries; [head_, size) are still queued. The sent prefix
  // is reclaimed before the vector would grow, so steady state allocates
  // nothing.
  std::vector<Entry> queue_;
  std::size_t head_{0};
};

}  // namespace prophet::sched
