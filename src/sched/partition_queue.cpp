#include "sched/partition_queue.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"

namespace prophet::sched {

PartitionQueue::PartitionQueue(Bytes partition_bytes)
    : partition_bytes_{partition_bytes} {
  PROPHET_CHECK(partition_bytes.count() > 0);
}

std::int64_t PartitionQueue::head_slice(const Tensor& tensor) const {
  return std::min(partition_bytes_.count(), tensor.total - tensor.next);
}

void PartitionQueue::add(std::size_t grad, Bytes bytes) {
  PROPHET_CHECK(bytes.count() > 0);
  if (grad >= tensors_.size()) tensors_.resize(grad + 1);
  Tensor& tensor = tensors_[grad];
  PROPHET_CHECK_MSG(tensor.total == 0, "tensor enqueued twice");
  tensor = Tensor{0, bytes.count()};
  // ceil(bytes / pb) for bytes > 0; `bytes + pb - 1` overflows at kWholeTensor.
  const std::int64_t pb = partition_bytes_.count();
  partitions_ += static_cast<std::size_t>((bytes.count() - 1) / pb + 1);
  queued_ += bytes;
  heap_.push_back(grad);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::optional<Bytes> PartitionQueue::peek_bytes() const {
  if (heap_.empty()) return std::nullopt;
  return Bytes::of(head_slice(tensors_[heap_.front()]));
}

void PartitionQueue::pop(Bytes budget, std::vector<TransferItem>& out) {
  Bytes used{};
  bool popped = false;
  while (!heap_.empty()) {
    const std::size_t grad = heap_.front();
    Tensor& tensor = tensors_[grad];
    const Bytes len = Bytes::of(head_slice(tensor));
    if (popped && used + len > budget) break;
    const bool last = tensor.next + len.count() == tensor.total;
    out.push_back(TransferItem{grad, Bytes::of(tensor.next), len, last});
    popped = true;
    used += len;
    queued_ -= len;
    --partitions_;
    tensor.next += len.count();
    if (last) {
      tensor = Tensor{};
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }
}

void PartitionQueue::clear() {
  for (const std::size_t grad : heap_) tensors_[grad] = Tensor{};
  heap_.clear();
  partitions_ = 0;
  queued_ = Bytes::zero();
}

}  // namespace prophet::sched
