#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/partition_queue.hpp"

namespace prophet::sched {
namespace {

std::vector<TransferItem> pop(PartitionQueue& q, Bytes budget) {
  std::vector<TransferItem> items;
  q.pop(budget, items);
  return items;
}

TEST(PartitionQueue, SlicesTensorIntoPartitions) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(3, Bytes::mib(2) + Bytes::kib(512));
  EXPECT_EQ(q.partition_count(), 3u);
  const auto items = pop(q, Bytes::mib(100));
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].offset.count(), 0);
  EXPECT_EQ(items[0].bytes, Bytes::mib(1));
  EXPECT_FALSE(items[0].last_slice);
  EXPECT_EQ(items[1].offset, Bytes::mib(1));
  EXPECT_EQ(items[2].offset, Bytes::mib(2));
  EXPECT_EQ(items[2].bytes, Bytes::kib(512));
  EXPECT_TRUE(items[2].last_slice);
}

TEST(PartitionQueue, SmallTensorIsSinglePartition) {
  PartitionQueue q{Bytes::mib(4)};
  q.add(0, Bytes::kib(1));
  const auto items = pop(q, Bytes::of(1));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].last_slice);
  EXPECT_TRUE(q.empty());
}

TEST(PartitionQueue, PopsInPriorityThenOffsetOrder) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(5, Bytes::mib(2));
  q.add(2, Bytes::mib(2));
  q.add(9, Bytes::mib(1));
  const auto items = pop(q, Bytes::mib(100));
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[0].grad, 2u);
  EXPECT_EQ(items[1].grad, 2u);
  EXPECT_LT(items[0].offset, items[1].offset);
  EXPECT_EQ(items[2].grad, 5u);
  EXPECT_EQ(items[4].grad, 9u);
}

TEST(PartitionQueue, BudgetLimitsPop) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(0, Bytes::mib(5));
  const auto first = pop(q, Bytes::mib(2));
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(q.partition_count(), 3u);
  const auto rest = pop(q, Bytes::mib(100));
  EXPECT_EQ(rest.size(), 3u);
  EXPECT_TRUE(rest.back().last_slice);
}

TEST(PartitionQueue, AlwaysPopsAtLeastOne) {
  PartitionQueue q{Bytes::mib(4)};
  q.add(1, Bytes::mib(4));
  const auto items = pop(q, Bytes::of(1));
  EXPECT_EQ(items.size(), 1u);
}

TEST(PartitionQueue, HigherPriorityArrivalPreemptsQueuedWork) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(10, Bytes::mib(3));
  (void)pop(q, Bytes::mib(1));  // one partition of 10 in flight
  q.add(0, Bytes::mib(1));     // urgent tensor arrives
  const auto items = pop(q, Bytes::mib(1));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].grad, 0u);
}

TEST(PartitionQueue, PeekBytes) {
  PartitionQueue q{Bytes::mib(1)};
  EXPECT_FALSE(q.peek_bytes().has_value());
  q.add(4, Bytes::kib(700));
  ASSERT_TRUE(q.peek_bytes().has_value());
  EXPECT_EQ(q.peek_bytes()->count(), Bytes::kib(700).count());
}

TEST(PartitionQueueDeath, DoubleEnqueueAborts) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(1, Bytes::mib(1));
  EXPECT_DEATH(q.add(1, Bytes::mib(1)), "tensor enqueued twice");
}

TEST(PartitionQueueDeath, ReAddAbortsWhileAnyPartitionIsQueued) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(1, Bytes::mib(3));
  (void)pop(q, Bytes::mib(2));  // two of three partitions sent
  EXPECT_DEATH(q.add(1, Bytes::mib(3)), "tensor enqueued twice");
  (void)pop(q, Bytes::mib(1));  // last partition sent: the tensor may return
  q.add(1, Bytes::mib(3));
  EXPECT_EQ(q.partition_count(), 3u);
}

TEST(PartitionQueue, ClearForgetsQueuedTensors) {
  PartitionQueue q{Bytes::mib(1)};
  q.add(2, Bytes::mib(2));
  q.add(0, Bytes::kib(10));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.partition_count(), 0u);
  EXPECT_EQ(q.queued_bytes(), Bytes::zero());
  q.add(2, Bytes::mib(1));  // cleared tensors may be enqueued again
  EXPECT_EQ(pop(q, Bytes::mib(8)).size(), 1u);
}

// Reference model: one ordered-map node per partition, keyed by (gradient,
// offset) — the queue's specified behaviour spelled out directly.
class MapModel {
 public:
  explicit MapModel(Bytes partition_bytes) : partition_bytes_{partition_bytes} {}

  [[nodiscard]] bool queued(std::size_t grad) const {
    const auto it = partitions_.lower_bound({grad, 0});
    return it != partitions_.end() && it->first.first == grad;
  }
  void add(std::size_t grad, Bytes bytes) {
    for (std::int64_t offset = 0; offset < bytes.count();) {
      const std::int64_t len = std::min(partition_bytes_.count(), bytes.count() - offset);
      partitions_[{grad, offset}] = {len, offset + len == bytes.count()};
      queued_ += Bytes::of(len);
      offset += len;
    }
  }
  std::vector<TransferItem> pop(Bytes budget) {
    std::vector<TransferItem> items;
    Bytes used{};
    while (!partitions_.empty()) {
      const auto it = partitions_.begin();
      const Bytes len = Bytes::of(it->second.first);
      if (!items.empty() && used + len > budget) break;
      items.push_back(TransferItem{it->first.first, Bytes::of(it->first.second), len,
                                   it->second.second});
      used += len;
      queued_ -= len;
      partitions_.erase(it);
    }
    return items;
  }
  [[nodiscard]] std::optional<Bytes> peek_bytes() const {
    if (partitions_.empty()) return std::nullopt;
    return Bytes::of(partitions_.begin()->second.first);
  }
  void clear() {
    partitions_.clear();
    queued_ = Bytes::zero();
  }
  [[nodiscard]] std::size_t partition_count() const { return partitions_.size(); }
  [[nodiscard]] Bytes queued_bytes() const { return queued_; }

 private:
  Bytes partition_bytes_;
  Bytes queued_{};
  // (grad, offset) -> (length, last slice)
  std::map<std::pair<std::size_t, std::int64_t>, std::pair<std::int64_t, bool>>
      partitions_;
};

void expect_same_items(const std::vector<TransferItem>& got,
                       const std::vector<TransferItem>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].grad, want[i].grad) << "step " << step << " item " << i;
    EXPECT_EQ(got[i].offset, want[i].offset) << "step " << step << " item " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "step " << step << " item " << i;
    EXPECT_EQ(got[i].last_slice, want[i].last_slice) << "step " << step << " item " << i;
  }
}

// Seeded random add / pop / peek / clear sequences must match the reference
// model item for item, with exact partition and byte counts after every step.
TEST(PartitionQueueProperty, MatchesOrderedMapModel) {
  constexpr std::size_t kGrads = 24;
  for (const std::int64_t partition_kib : {1, 7, 64, 1024}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message() << "partition " << partition_kib
                                        << " KiB, seed " << seed);
      const Bytes partition = Bytes::kib(partition_kib);
      PartitionQueue q{partition};
      MapModel model{partition};
      Rng rng{seed};
      std::vector<TransferItem> got;
      for (int step = 0; step < 600; ++step) {
        const std::int64_t op = rng.uniform_int(0, 99);
        if (op < 45) {
          const auto grad = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(kGrads) - 1));
          if (model.queued(grad)) continue;
          // Sizes straddle the partition size: sub-partition, exact multiples
          // and ragged tails all occur.
          const Bytes bytes = Bytes::of(rng.uniform_int(1, 5 * partition.count()));
          q.add(grad, bytes);
          model.add(grad, bytes);
        } else if (op < 90) {
          const Bytes budget = Bytes::of(rng.uniform_int(1, 6 * partition.count()));
          got.clear();
          q.pop(budget, got);
          expect_same_items(got, model.pop(budget), step);
        } else if (op < 97) {
          EXPECT_EQ(q.peek_bytes(), model.peek_bytes()) << "step " << step;
        } else {
          q.clear();
          model.clear();
        }
        ASSERT_EQ(q.partition_count(), model.partition_count()) << "step " << step;
        ASSERT_EQ(q.queued_bytes(), model.queued_bytes()) << "step " << step;
        ASSERT_EQ(q.empty(), model.partition_count() == 0) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace prophet::sched
