// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events fire in (time, insertion-seq)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. Handlers may schedule or cancel further events freely.
//
// An instant may also carry end-of-instant hooks (at_instant_end): callbacks
// that run once every record at now() has fired, before the clock moves.
// They are not events — they take no seq and are never counted — so a
// subsystem can coalesce a burst of same-instant changes into one piece of
// work without perturbing the event stream.
//
// Every queued record is a pooled one-shot event. Something that recurs (a
// monitor's sampling tick) re-arms itself from its own callback, and
// something that keeps moving its next instant (a rate group's next
// finisher) cancels its pending event and schedules a fresh one; a
// cancelled record stays in the heap and is skipped when popped.
//
// Determinism is a feature, not a simplification — every paired
// scheduler-vs-scheduler experiment in the benches relies on replaying the
// identical compute/network random draws under a different communication
// schedule.
//
// Event lifecycle state lives in a slab-allocated pool: each scheduled event
// occupies one reusable slot addressed by a {slot, generation} handle, so
// scheduling performs no per-event heap allocation (the old design paid two
// shared_ptr control blocks per event). The generation counter makes stale
// handles inert after a slot is recycled (no ABA): a handle only matches
// while its own event still owns the slot. The pool itself is shared between
// the simulator and outstanding handles, so a handle may safely outlive the
// simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace prophet::sim {

class Simulator;

// Identifier of a queued end-of-instant hook (see Simulator::at_instant_end).
using HookId = std::uint64_t;

namespace detail {

// Slab of per-event lifecycle slots. `done` flips when the event fires or is
// cancelled; `generation` advances each time the slot is recycled. The slot
// also owns the event's callback, which keeps the priority-heap records
// trivially copyable — heap sifts move 24-byte PODs, never a std::function.
struct EventPool {
  struct Slot {
    std::function<void()> cb;
    std::uint32_t generation = 0;
    bool done = true;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;
  // Scheduled, not-yet-fired, not-cancelled events.
  std::size_t live = 0;

  [[nodiscard]] bool matches(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots.size() && slots[slot].generation == generation;
  }
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t generation) const {
    return matches(slot, generation) && !slots[slot].done;
  }

  std::uint32_t acquire() {
    std::uint32_t slot;
    if (!free_list.empty()) {
      slot = free_list.back();
      free_list.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[slot].done = false;
    ++live;
    return slot;
  }

  // Marks the event done (idempotent); used by both cancel and fire.
  void finish(std::uint32_t slot) {
    Slot& s = slots[slot];
    if (s.done) return;
    s.done = true;
    --live;
  }

  // Returns the slot to the free list; stale handles stop matching and the
  // callback (with whatever it captured) is dropped.
  void release(std::uint32_t slot) {
    slots[slot].cb = nullptr;
    ++slots[slot].generation;
    free_list.push_back(slot);
  }
};

}  // namespace detail

// Cancellation handle for a scheduled event. Default-constructed handles are
// inert. Cancelling an already-fired or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() {
    if (pool_ && pool_->pending(slot_, generation_)) pool_->finish(slot_);
  }
  [[nodiscard]] bool pending() const {
    return pool_ && pool_->pending(slot_, generation_);
  }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::EventPool> pool, std::uint32_t slot,
              std::uint32_t generation)
      : pool_{std::move(pool)}, slot_{slot}, generation_{generation} {}
  std::shared_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() : pool_{std::make_shared<detail::EventPool>()} {}
  // Undelivered events die with the simulator: outstanding handles see them
  // as no longer pending, and their callbacks (with captures) are dropped.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedules `cb` to run at `at` (>= now).
  EventHandle schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventHandle schedule_after(Duration delay, Callback cb);

  // Runs until the queue drains and no hook is queued. Returns the number of
  // events fired.
  std::uint64_t run();
  // Runs until the queue drains or simulated time would pass `deadline`;
  // events at exactly `deadline` still fire. Returns with no hook queued.
  std::uint64_t run_until(TimePoint deadline);
  // Fires exactly one event if any is pending, then ends the instant if that
  // event was its last. Returns false once no event is left.
  bool step();

  // --- end-of-instant hooks ------------------------------------------------
  // Queues `cb` to run once when the current instant ends: after the last
  // record at now() has fired — records scheduled during the instant
  // included — and before time advances or the queue drains. Hooks run in
  // the order they were queued. A hook that schedules a zero-delay record
  // reopens the instant: that record fires next, and hooks queued meanwhile
  // run after it. Hooks take no seq and count in neither events_fired() nor
  // pending_events().
  HookId at_instant_end(Callback cb);
  // Withdraws a queued hook; a no-op once it has run.
  void cancel_instant_end(HookId id);

  // No pending event and no queued hook.
  [[nodiscard]] bool empty() const {
    return pool_->live == 0 && hooks_.empty();
  }
  // Scheduled, not-yet-fired, not-cancelled events.
  [[nodiscard]] std::size_t pending_events() const { return pool_->live; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  // Pool capacity (high-water mark of concurrently tracked events); exposed
  // for the slab-reuse tests.
  [[nodiscard]] std::size_t event_slot_count() const { return pool_->slots.size(); }

 private:
  // Trivially copyable, 16 bytes — the callback lives in the pool slot, so
  // heap sifts shuffle small PODs instead of dragging a std::function
  // through every swap, and four records share a cache line. A queued record
  // owns its pool slot until popped, so no generation tag is needed here
  // (only external handles can go stale). seq is 32-bit: schedule_at fails
  // loudly if a single simulator ever issues 2^32 events.
  struct Record {
    TimePoint at;
    std::uint32_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const Record& a, const Record& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // Inserts into / pops the earliest record off heap_.
  void heap_push(const Record& rec);
  Record pop_front();
  // Fires a popped record unless it was cancelled while queued; returns
  // whether it fired.
  bool dispatch(const Record& rec);
  // Runs the hooks queued so far, in queue order.
  void run_hook_batch();
  // Runs hook batches while the instant at now() is over (no record, live
  // or dead, is left at now()). Inline: the event loops call it per event.
  void end_instant_if_over() {
    while (!hooks_.empty() && (heap_.empty() || heap_.front().at > now_)) {
      run_hook_batch();
    }
  }

  std::shared_ptr<detail::EventPool> pool_;
  // 4-ary implicit min-heap on (at, seq). Versus a binary heap this halves
  // the sift depth and keeps a node's children in adjacent cache lines, which
  // is what dominates dispatch cost once the queue outgrows L2.
  std::vector<Record> heap_;
  // End-of-instant hooks, in queue order; `running_hooks_` holds the batch
  // being run so a hook can still withdraw a later one of the same batch.
  struct Hook {
    HookId id;
    Callback cb;
  };
  std::vector<Hook> hooks_;
  std::vector<Hook> running_hooks_;
  HookId next_hook_{0};
  TimePoint now_{};
  std::uint32_t next_seq_{0};
  std::uint64_t fired_{0};
};

}  // namespace prophet::sim
