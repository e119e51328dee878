// Priority-ordered queue of tensor partitions, shared by the P3,
// ByteScheduler and Prophet schedulers: tensors are sliced into fixed-size
// partitions and popped most-urgent-first (smallest gradient index, then
// ascending offset within a tensor).
//
// The queue holds one entry per queued tensor, not one per partition: a
// per-gradient table records each tensor's unsent byte range and a min-heap
// orders the queued gradients. Partitions are sliced lazily on pop, so
// add/pop touch the heap once per tensor and never allocate once the table
// and heap have grown to the model's tensor count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "sched/task.hpp"

namespace prophet::sched {

class PartitionQueue {
 public:
  explicit PartitionQueue(Bytes partition_bytes);

  // Enqueues tensor `grad` of `bytes`, to be sliced into partitions. Aborts
  // if any partition of `grad` is still queued.
  void add(std::size_t grad, Bytes bytes);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t partition_count() const { return partitions_; }
  [[nodiscard]] Bytes partition_bytes() const { return partition_bytes_; }
  // Total bytes currently queued.
  [[nodiscard]] Bytes queued_bytes() const { return queued_; }

  // Size of the most urgent queued partition.
  [[nodiscard]] std::optional<Bytes> peek_bytes() const;

  // Pops partitions in priority order until `budget` is exhausted, appending
  // them to `out`. Always pops at least one partition when non-empty (a
  // budget smaller than one partition still makes progress, mirroring credit
  // semantics).
  void pop(Bytes budget, std::vector<TransferItem>& out);

  // Drops everything queued (crash recovery: the engine re-enqueues what the
  // replayed iteration still needs).
  void clear();

 private:
  // Unsent byte range [next, total) of one tensor; total == 0: not queued.
  struct Tensor {
    std::int64_t next = 0;
    std::int64_t total = 0;
  };
  [[nodiscard]] std::int64_t head_slice(const Tensor& tensor) const;

  Bytes partition_bytes_;
  Bytes queued_{};
  std::size_t partitions_{0};
  std::vector<Tensor> tensors_;    // indexed by gradient, grown on demand
  std::vector<std::size_t> heap_;  // min-heap of queued gradients
};

}  // namespace prophet::sched
