// Reliable transport over FlowNetwork: the retransmission substrate the
// paper's EC2 runs get from TCP for free, made explicit so its cost under
// loss is measurable.
//
// A ReliableChannel wraps start_flow with per-attempt loss injection (seeded
// via common/rng, so a fixed seed replays the identical fault timeline), a
// per-attempt no-progress watchdog, bounded exponential backoff with jitter
// and a retry budget. Whether a failed attempt resumes from the bytes already
// drained or restarts the whole transfer is a config knob
// (`resume_partial`), quantifying the difference a byte-range-resuming
// transport makes versus message-level retransmission.
//
// Pay-for-use: with loss_rate == 0 a send is exactly one start_flow and zero
// extra events or RNG draws — a fault-free run is bit-identical to one built
// without this layer. The channel still tracks the live FlowId so a crash
// can abort in-flight transfers (abort_all).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "net/flow_network.hpp"

namespace prophet::net {

struct ReliabilityConfig {
  // Per-attempt probability that the attempt is lost in flight.
  double loss_rate = 0.0;
  // No-progress watchdog: an attempt that drains nothing for this long is
  // declared lost (covers both injected losses that stall the stream and
  // flows parked behind a link outage). Long transfers keep resetting the
  // watchdog as bytes drain, so the timeout does not bound transfer size.
  Duration stall_timeout = Duration::millis(200);
  // Exponential backoff before retry n: base * 2^(n-1), capped.
  Duration backoff_base = Duration::millis(2);
  Duration backoff_cap = Duration::millis(200);
  // Fraction of the backoff subtracted uniformly at random (decorrelates
  // retry storms after a shared fault).
  double backoff_jitter = 0.2;
  // Retries allowed per transfer beyond the first attempt; exhausting it
  // aborts the run loudly (the simulation models a training job that would
  // hang, not one that silently drops a gradient).
  std::size_t retry_budget = 16;
  // true: a retry resends only the bytes the failed attempt did not drain
  // (byte-range resume); false: every retry restarts the whole transfer.
  bool resume_partial = true;

  [[nodiscard]] bool enabled() const { return loss_rate > 0.0; }
  // Aborts with an actionable message on an ill-formed config.
  void validate() const;
};

// Delivered to the sender's completion callback.
struct SendOutcome {
  std::size_t attempts = 1;
  // Bytes drained by failed attempts and sent again (zero under resume).
  Bytes retransmitted = Bytes::zero();
};

// Transport-fault notification (a failed attempt that will be retried).
struct ChannelFault {
  enum class Kind {
    kLoss,     // injected in-flight drop
    kTimeout,  // no-progress watchdog expired
  };
  Kind kind = Kind::kLoss;
  std::size_t attempt = 0;  // failed attempt, 1-based
  Duration backoff{};       // wait before the next attempt
  Bytes remaining{};        // bytes the failed attempt left undelivered
};

class ReliableChannel {
 public:
  using CompleteFn = std::function<void(const SendOutcome&)>;
  using FaultFn = std::function<void(const ChannelFault&)>;

  ReliableChannel(sim::Simulator& sim, FlowNetwork& net, ReliabilityConfig config,
                  Rng rng);
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Starts a reliable transfer; `on_complete` fires exactly once, when every
  // byte has drained (after however many attempts that takes).
  void send(NodeId src, NodeId dst, Bytes size, CompleteFn on_complete);

  // Crash support: abandons every in-flight send. Their completion callbacks
  // never fire and their flows are cancelled immediately.
  void abort_all();

  // Runtime loss-rate update (dynamics `loss_rate` events).
  void set_loss_rate(double rate);

  // Observer for retry events (metrics/trace recording); optional.
  void set_fault_handler(FaultFn fn) { on_fault_ = std::move(fn); }

  [[nodiscard]] const ReliabilityConfig& config() const { return config_; }
  [[nodiscard]] std::size_t inflight() const { return sends_.size(); }

 private:
  struct Pending {
    std::uint64_t id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    Bytes total = Bytes::zero();
    Bytes attempt_bytes = Bytes::zero();  // size of the current attempt
    Bytes delivered = Bytes::zero();      // drained by failed attempts (resume)
    Bytes retransmitted = Bytes::zero();
    std::size_t attempts = 0;
    FlowId flow = 0;
    bool flow_live = false;
    double watchdog_remaining = 0.0;  // progress marker at last watchdog check
    CompleteFn on_complete;
    sim::EventHandle loss_event;
    sim::EventHandle watchdog;
    sim::EventHandle retry_event;
  };

  // The in-flight send `id` (aborts if it is not in flight). The reference
  // dies with the next send or completion: never hold one across on_fault_
  // or a completion callback.
  [[nodiscard]] Pending& pending(std::uint64_t id);
  void launch(std::uint64_t id);
  void on_attempt_complete(std::uint64_t id);
  void on_watchdog(std::uint64_t id);
  void fail_attempt(std::uint64_t id, ChannelFault::Kind kind);
  [[nodiscard]] Duration backoff_for(std::size_t failed_attempts);
  static void cancel_timers(Pending& p);

  sim::Simulator& sim_;
  FlowNetwork& net_;
  ReliabilityConfig config_;
  Rng rng_;
  FaultFn on_fault_;
  // In-flight sends in ascending id order: ids are issued monotonically, so
  // appending keeps the order; point lookups binary-search and abort_all
  // walks front to back, so replay stays exact. A channel carries a handful
  // of sends at once and the storage is reused from send to send.
  std::vector<Pending> sends_;
  std::uint64_t next_id_ = 0;
};

}  // namespace prophet::net
