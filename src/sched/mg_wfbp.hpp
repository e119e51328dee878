// MG-WFBP (Shi et al., INFOCOM'19): merged-gradient wait-free backward
// propagation. Consecutive gradients are merged into a single communication
// when the merge is predicted to cost less than transferring them
// separately — a *static* consolidation rule based only on sizes and a
// fixed per-message startup cost, with no knowledge of the stepwise
// generation timeline or the live bandwidth.
//
// In this engine: gradients accumulate in a priority buffer; a merge is
// emitted when the buffered bytes reach `merge_bytes` or when the most
// urgent buffered tensor has waited `max_delay`. It is the natural static
// ancestor of Prophet's predictive blocks, which is why it appears in the
// extended comparison bench.
#pragma once

#include <map>

#include "sched/scheduler.hpp"

namespace prophet::sched {

struct MgWfbpConfig {
  // Target merged-message size: startup_cost amortization point.
  Bytes merge_bytes = Bytes::mib(8);
  // Emit a partial merge once its head tensor has waited this long.
  Duration max_delay = Duration::millis(10);
};

class MgWfbpScheduler final : public CommScheduler {
 public:
  MgWfbpScheduler(TaskKind kind, MgWfbpConfig config = {});

  void enqueue(std::size_t grad, Bytes bytes, TimePoint now) override;
  void on_task_done(const TransferTask& task, TimePoint started,
                    TimePoint finished) override;
  void on_recovery(TimePoint) override {
    buffer_.clear();
    buffered_ = Bytes::zero();
  }
  [[nodiscard]] bool has_pending() const override { return !buffer_.empty(); }
  [[nodiscard]] std::string name() const override { return "mg-wfbp"; }

 private:
  bool fill_task(TimePoint now, TransferTask& task) override;

  MgWfbpConfig config_;
  struct Entry {
    Bytes bytes;
    TimePoint enqueued;
  };
  std::map<std::size_t, Entry> buffer_;  // priority-ordered
  Bytes buffered_{};
};

}  // namespace prophet::sched
