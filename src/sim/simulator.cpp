#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

namespace prophet::sim {

Simulator::~Simulator() {
  for (auto& slot : pool_->slots) {
    slot.done = true;
    slot.cb = nullptr;
  }
  pool_->live = 0;
}

EventHandle Simulator::schedule_at(TimePoint at, Callback cb) {
  PROPHET_CHECK_MSG(at >= now_, "scheduling into the past");
  PROPHET_CHECK(cb != nullptr);
  const std::uint32_t slot = pool_->acquire();
  const std::uint32_t generation = pool_->slots[slot].generation;
  pool_->slots[slot].cb = std::move(cb);
  PROPHET_CHECK_MSG(next_seq_ != std::numeric_limits<std::uint32_t>::max(),
                    "event sequence counter exhausted");
  heap_push(Record{at, next_seq_++, slot});
  return EventHandle{pool_, slot, generation};
}

EventHandle Simulator::schedule_after(Duration delay, Callback cb) {
  PROPHET_CHECK_MSG(delay >= Duration::zero(), "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Simulator::heap_push(const Record& rec) {
  heap_.push_back(rec);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Simulator::Record Simulator::pop_front() {
  const Record top = heap_.front();
  const Record last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift the hole down, then drop `last` into it.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    // Warm the next event's pool slot while the popped event's callback
    // runs — the slot access pattern is random, and this hides most of the
    // resulting cache miss.
    __builtin_prefetch(&pool_->slots[heap_[0].slot]);
  }
  return top;
}

bool Simulator::dispatch(const Record& rec) {
  if (pool_->slots[rec.slot].done) {  // cancelled while queued
    pool_->release(rec.slot);
    return false;
  }
  PROPHET_CHECK(rec.at >= now_);
  now_ = rec.at;
  // Move the callback out before the slot is recycled: the callback itself
  // may schedule new events that reuse this very slot.
  Callback cb = std::move(pool_->slots[rec.slot].cb);
  pool_->finish(rec.slot);
  pool_->release(rec.slot);
  ++fired_;
  cb();
  return true;
}

HookId Simulator::at_instant_end(Callback cb) {
  PROPHET_CHECK(cb != nullptr);
  const HookId id = next_hook_++;
  hooks_.push_back(Hook{id, std::move(cb)});
  return id;
}

void Simulator::cancel_instant_end(HookId id) {
  for (std::vector<Hook>* batch : {&hooks_, &running_hooks_}) {
    for (Hook& h : *batch) {
      if (h.id == id) h.cb = nullptr;
    }
  }
}

void Simulator::run_hook_batch() {
  // Hooks queued by this batch form the next one: they run after any
  // zero-delay record the batch scheduled.
  running_hooks_.swap(hooks_);
  for (Hook& h : running_hooks_) {
    if (!h.cb) continue;  // withdrawn
    Callback cb = std::move(h.cb);
    cb();
  }
  running_hooks_.clear();
}

std::uint64_t Simulator::run() {
  std::uint64_t fired = 0;
  for (;;) {
    end_instant_if_over();
    if (heap_.empty()) return fired;
    if (dispatch(pop_front())) ++fired;
  }
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t fired = 0;
  for (;;) {
    end_instant_if_over();
    if (heap_.empty() || heap_.front().at > deadline) break;
    if (dispatch(pop_front())) ++fired;
  }
  // Only a deadline already behind now() can leave a same-instant record
  // queued here; the caller has closed the instant, so its hooks run anyway.
  while (!hooks_.empty()) run_hook_batch();
  return fired;
}

bool Simulator::step() {
  for (;;) {
    end_instant_if_over();
    if (heap_.empty()) return false;
    if (dispatch(pop_front())) {
      end_instant_if_over();
      return true;
    }
  }
}

}  // namespace prophet::sim
