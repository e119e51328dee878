#include "sched/bytescheduler.hpp"

#include "common/check.hpp"

namespace prophet::sched {

ByteSchedulerScheduler::ByteSchedulerScheduler(TaskKind kind, ByteSchedulerConfig config)
    : CommScheduler{kind},
      config_{config},
      queue_{config.partition_bytes},
      credit_{config.credit_bytes},
      tuner_rng_{config.tuner_seed} {
  PROPHET_CHECK(config_.credit_bytes >= config_.partition_bytes);
  if (config_.autotune) {
    PROPHET_CHECK(config_.credit_max > config_.credit_min);
    tuner_ = std::make_unique<BayesOpt1D>(
        static_cast<double>(config_.credit_min.count()),
        static_cast<double>(config_.credit_max.count()));
  }
}

void ByteSchedulerScheduler::enqueue(std::size_t grad, Bytes bytes, TimePoint) {
  queue_.add(grad, bytes);
}

bool ByteSchedulerScheduler::fill_task(TimePoint, TransferTask& task) {
  if (queue_.empty()) return false;
  queue_.pop(credit_, task.items);
  task.post_delay = config_.credit_ack_delay;
  return true;
}

void ByteSchedulerScheduler::on_task_done(const TransferTask&, TimePoint, TimePoint) {}

void ByteSchedulerScheduler::on_iteration_end(std::size_t, TimePoint now) {
  if (!config_.autotune) return;
  if (!episode_start_.has_value()) {
    episode_start_ = now;
    return;
  }
  ++episode_iters_;
  if (episode_iters_ >= config_.tune_interval_iters) finish_tuning_episode(now);
}

void ByteSchedulerScheduler::finish_tuning_episode(TimePoint now) {
  const Duration elapsed = now - *episode_start_;
  if (elapsed > Duration::zero()) {
    // Iterations per second is a monotone proxy for samples/s.
    const double rate =
        // prophet-lint: allow(R1): autotuner reward is a float throughput rate by design; never fed back into time arithmetic
        static_cast<double>(episode_iters_) / elapsed.to_seconds();
    tuner_->observe(static_cast<double>(credit_.count()), rate);
    const double next = tuner_->suggest(tuner_rng_);
    credit_ = std::max(config_.partition_bytes,
                       Bytes::of(static_cast<std::int64_t>(next)));
  }
  episode_iters_ = 0;
  episode_start_ = now;
}

}  // namespace prophet::sched
