#include "core/prophet_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace prophet::core {

ProphetScheduler::ProphetScheduler(sched::TaskKind kind, std::size_t gradient_count,
                                   BandwidthFn bandwidth_fn, net::TcpCostModel cost,
                                   ProphetConfig config)
    : CommScheduler{kind},
      gradient_count_{gradient_count},
      bandwidth_fn_{std::move(bandwidth_fn)},
      cost_{cost},
      config_{config},
      partitions_{config.partition_bytes},
      arrived_(gradient_count, 0) {
  PROPHET_CHECK(gradient_count_ > 0);
  PROPHET_CHECK(bandwidth_fn_ != nullptr);
  PROPHET_CHECK(config_.budget_margin >= 0.0 && config_.budget_margin < 1.0);
  if (kind == sched::TaskKind::kPush) {
    profiler_ = std::make_unique<TrainingJobProfiler>(gradient_count_,
                                                      config_.profile_iterations);
  } else {
    // Pull side never profiles: it activates once given the push profile,
    // and until then behaves as FIFO like the profiling phase does.
  }
}

const GradientProfile& ProphetScheduler::profile() const {
  PROPHET_CHECK_MSG(profile_.has_value(), "profile not ready");
  return *profile_;
}

void ProphetScheduler::set_profile(GradientProfile profile) {
  PROPHET_CHECK(profile.gradient_count() == gradient_count_);
  profile_ = std::move(profile);
  profiler_.reset();
}

void ProphetScheduler::on_iteration_start(std::size_t, TimePoint now) {
  backward_start_ = now;
  std::fill(arrived_.begin(), arrived_.end(), std::int8_t{0});
  if (profiler_ != nullptr) {
    if (iteration_open_) {
      profiler_->end_iteration();
      if (profiler_->complete()) {
        profile_ = profiler_->build();
        profiler_.reset();
      }
    }
    if (profiler_ != nullptr) {
      profiler_->begin_iteration(now);
      iteration_open_ = true;
    } else {
      iteration_open_ = false;
    }
  }
  // Once the block assembler is live, (re-)plan against the monitored B at
  // each iteration boundary. The push side plans its interval budgets against
  // the snapshot; both sides size their drain groups from it.
  if (profile_.has_value()) maybe_replan();
}

void ProphetScheduler::on_recovery(TimePoint) {
  // Queued partitions died with the worker's in-flight state; the engine
  // re-enqueues what the replayed iteration still owes.
  partitions_.clear();
  // A partially-observed profiling iteration would skew the c^(i) means —
  // drop it. The profile built from the surviving iterations is what the
  // re-plan works from (profiling simply runs one iteration longer).
  if (profiler_ != nullptr && iteration_open_) {
    profiler_->abandon_iteration();
    iteration_open_ = false;
  }
  // Schedule repair: force a fresh plan from the monitored bandwidth at the
  // next iteration boundary instead of trusting a pre-crash snapshot (the
  // recovery traffic burst and any link change since make it stale).
  if (config_.repair_replan && !planning_bandwidth_.is_zero()) {
    planning_bandwidth_ = Bandwidth::zero();
    ++replans_;
  }
}

void ProphetScheduler::on_partial_recovery(
    const std::vector<std::uint8_t>& /*affected_keys*/, TimePoint now) {
  // The engine clears and re-enqueues the replayed work either way, so the
  // queue and profiling handling match a full recovery...
  partitions_.clear();
  if (profiler_ != nullptr && iteration_open_) {
    profiler_->abandon_iteration();
    iteration_open_ = false;
  }
  // ...but the repair itself is shard-aware: only one PS shard bounced, the
  // fabric kept carrying the surviving shards' flows, so the monitored
  // estimate never went cold. Re-plan from it immediately instead of zeroing
  // the snapshot and waiting for the next iteration boundary — a whole-tier
  // failover cannot do this because its estimate is polluted by the outage
  // window.
  (void)now;
  if (config_.repair_replan && !planning_bandwidth_.is_zero()) {
    const Bandwidth live = bandwidth_fn_();
    if (!live.is_zero()) planning_bandwidth_ = live;
    ++replans_;
  }
}

void ProphetScheduler::on_gradient_skipped(std::size_t grad, TimePoint) {
  PROPHET_CHECK(grad < gradient_count_);
  // The PS already holds this round's aggregate for `grad`: the replayed
  // iteration will not transfer it, but block assembly must not keep
  // predicting its generation either.
  arrived_[grad] = 1;
  // A profiling iteration that skips tensors can never be complete.
  if (profiler_ != nullptr && iteration_open_) profiler_->invalidate_iteration();
}

void ProphetScheduler::maybe_replan() {
  if (!config_.bandwidth_override.is_zero()) return;
  const Bandwidth live = bandwidth_fn_();
  if (live.is_zero()) return;
  if (planning_bandwidth_.is_zero()) {
    planning_bandwidth_ = live;  // initial plan, not a re-plan
    return;
  }
  const double drift =
      std::abs(live.bytes_per_second() - planning_bandwidth_.bytes_per_second()) /
      planning_bandwidth_.bytes_per_second();
  // Drift beyond the dead-band feeds the peak-hold instability signal that
  // sizes the drain groups; measured *before* the snapshot refresh, so a
  // re-plan clears the drift but the instability decays gradually.
  instability_ = std::max(std::max(0.0, drift - config_.instability_deadband),
                          instability_ * config_.instability_decay);
  if (drift > config_.replan_drift) {
    planning_bandwidth_ = live;
    ++replans_;
  }
}

Bandwidth ProphetScheduler::plan_bandwidth_now() const {
  if (!config_.bandwidth_override.is_zero()) return config_.bandwidth_override;
  if (!planning_bandwidth_.is_zero()) return planning_bandwidth_;
  return bandwidth_fn_();
}

Bytes ProphetScheduler::drain_group_bytes() const {
  if (!config_.adaptive_drain_groups || instability_ <= 0.0) {
    return config_.forward_group_max;
  }
  const double scale = 1.0 / (1.0 + config_.instability_gain * instability_);
  // Floor at a quarter of the full cap (and never below a partition): the
  // point is preemption granularity, not giving up amortization entirely.
  const Bytes floor = std::max(config_.partition_bytes,
                               Bytes::of(config_.forward_group_max.count() / 4));
  return std::clamp(
      Bytes::of(static_cast<std::int64_t>(
          static_cast<double>(config_.forward_group_max.count()) * scale)),
      floor, config_.forward_group_max);
}

void ProphetScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint now) {
  PROPHET_CHECK(grad < gradient_count_);
  arrived_[grad] = 1;
  if (profiler_ != nullptr && iteration_open_) {
    profiler_->record_ready(grad, bytes, now);
  }
  partitions_.add(grad, bytes);
}

bool ProphetScheduler::has_pending() const { return !partitions_.empty(); }

std::optional<TimePoint> ProphetScheduler::next_higher_priority_eta(
    std::size_t grad) const {
  std::optional<TimePoint> eta;
  for (std::size_t j = 0; j < grad; ++j) {
    if (arrived_[j] != 0) continue;
    const TimePoint predicted = backward_start_ + profile_->ready[j];
    if (!eta.has_value() || predicted < *eta) eta = predicted;
  }
  return eta;
}

bool ProphetScheduler::fill_task(TimePoint now, sched::TransferTask& task) {
  if (partitions_.empty()) return false;
  if (!profile_.has_value()) {
    // Profiling phase: the underlying engine's default behaviour — priority
    // order, fixed credit-sized groups (BytePS without block assembly).
    partitions_.pop(kind() == sched::TaskKind::kPush ? config_.min_block
                                                     : config_.forward_group_max,
                    task.items);
  } else if (kind() == sched::TaskKind::kPush) {
    fill_push_task(now, task);
  } else {
    // Pull side: no generation pattern to race; ready parameters drain
    // most-urgent-first in capped groups.
    partitions_.pop(drain_group_bytes(), task.items);
  }
  return true;
}

void ProphetScheduler::fill_push_task(TimePoint now, sched::TransferTask& task) {
  const auto head = partitions_.peek_bytes();
  PROPHET_CHECK(head.has_value());

  // During forward propagation (gradient 0 arrived) there is nothing left to
  // race: drain the leftovers in strict priority order (Constraint (9) /
  // Alg. 1 lines 13-14), wrapped into block tasks like the prototype's
  // Scheduled Queue wraps gradients into network data — capped so a more
  // urgent tensor never waits long behind an in-flight block.
  const bool backward_running = arrived_[0] == 0;
  const Bandwidth bandwidth = plan_bandwidth_now();
  if (!backward_running) {
    partitions_.pop(drain_group_bytes(), task.items);
    return;
  }

  // Backward phase: block assembly under the predicted interval budget —
  // the time until the next pending gradient is generated. Backward emits in
  // descending index order, so every pending gradient is more urgent than
  // anything already queued; a transfer crossing its generation instant
  // would delay it, violating Constraint (11).
  Duration budget = Duration::max();
  std::optional<TimePoint> eta = next_higher_priority_eta(gradient_count_);
  if (eta.has_value()) {
    budget = positive_part(*eta - now) * (1.0 - config_.budget_margin);
  }
  Bytes byte_budget = budget == Duration::max()
                          ? Bytes::of(std::numeric_limits<std::int64_t>::max() / 2)
                          : cost_.max_bytes_within(budget, bandwidth);
  // Never idle a NIC with work queued, and never shrink below the assembly
  // floor: when the predicted interval collapses (transfers running late, a
  // generation event overdue), a starved or sliver-sending NIC loses far
  // more than the bounded preemption delay one floor-sized block costs
  // (e.g. the 1 Gbps rows of Table 2).
  Bytes floor = config_.min_block;
  // Backlog awareness: when the queued bytes cannot possibly drain before
  // backward propagation completes, racing the generation events is moot —
  // every gradient will queue regardless — so amortize the per-task cost
  // with full-size blocks instead (deep network-bound regimes: FC-heavy or
  // transformer models on slow links).
  const Duration until_c0 =
      positive_part(backward_start_ + profile_->ready[0] - now);
  if (partitions_.queued_bytes() > bandwidth.bytes_in(until_c0)) {
    floor = std::max(floor, drain_group_bytes());
  }
  byte_budget = std::max({byte_budget, *head, floor});
  partitions_.pop(byte_budget, task.items);
}

void ProphetScheduler::on_task_done(const sched::TransferTask&, TimePoint, TimePoint) {}

}  // namespace prophet::core
