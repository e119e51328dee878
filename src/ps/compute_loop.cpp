#include "ps/compute_loop.hpp"

#include "common/check.hpp"
#include "common/inline_closure.hpp"

namespace prophet::ps {

ComputeLoop::ComputeLoop(sim::Simulator& sim, std::size_t id, std::size_t iterations,
                         const dnn::IterationModel* iteration_model, int batch,
                         Duration metrics_bin, Duration metrics_horizon, Rng rng)
    : sim_{sim},
      id_{id},
      iterations_{iterations},
      iteration_model_{iteration_model},
      rng_{rng},
      training_{batch},
      gpu_{metrics_bin, metrics_horizon} {
  PROPHET_CHECK(iteration_model_ != nullptr);
}

void ComputeLoop::start() { begin_iteration(); }

void ComputeLoop::set_compute_factor(double factor) {
  PROPHET_CHECK_MSG(factor > 0.0, "compute factor must be positive");
  compute_factor_ = factor;
}

void ComputeLoop::begin_iteration() {
  on_iteration_start(sim_.now());
  training_.mark_iteration_start(iter_, sim_.now());
  if (done()) return;  // final boundary recorded; no more compute
  iteration_model_->sample(rng_, timing_);
  if (compute_factor_ != 1.0) {
    // Straggler injection: the whole compute timeline stretches, including
    // the gradient-ready offsets the KVStore flushes are pinned to.
    for (auto& d : timing_.fwd) d = d * compute_factor_;
    for (auto& d : timing_.bwd) d = d * compute_factor_;
    for (auto& d : timing_.ready_offset) d = d * compute_factor_;
  }
  fwd_layer_ = 0;
  waiting_ = false;
  advance_forward();
}

void ComputeLoop::advance_forward() {
  if (fwd_layer_ == timing_.fwd.size()) {
    begin_backward();
    return;
  }
  if (!gate_open(fwd_layer_)) {
    // Eq. (3): layer fwd blocked until its update arrives; this idle gap is
    // exactly the (u - p)^+ term of T_wait.
    waiting_ = true;
    return;
  }
  gpu_.busy_from(sim_.now());
  sim_.schedule_after(timing_.fwd[fwd_layer_],
                      inline_closure([this, inc = incarnation_] {
                        if (inc != incarnation_) return;  // compute died with the crash
                        gpu_.idle_from(sim_.now());
                        ++fwd_layer_;
                        advance_forward();
                      }));
}

void ComputeLoop::begin_backward() {
  const TimePoint now = sim_.now();
  on_backward_start(now);
  // Backward compute occupies the GPU until the final flush.
  gpu_.busy_from(now);

  // Gradient emissions at the KVStore flush instants (stepwise pattern). A
  // KVStore flush releases a contiguous index range, so the offsets form a
  // few runs of equal value; sorting the runs by (offset, first index) lines
  // up each event's runs in ascending index order. Every flush of the
  // previous backward fired before its end_backward (no offset exceeds
  // backward_total), so the run buffer is free to rewrite.
  PROPHET_CHECK_MSG(flushes_pending_ == 0,
                    "a gradient flush of the previous backward is still pending");
  const auto& ready = timing_.ready_offset;
  flush_runs_.clear();
  for (std::size_t g = 0; g < ready.size(); ++g) {
    if (g > 0 && ready[g] == ready[g - 1]) {
      ++flush_runs_.back().end;
    } else {
      flush_runs_.push_back(FlushRun{ready[g], g, g + 1});
    }
  }
  std::sort(flush_runs_.begin(), flush_runs_.end(),
            [](const FlushRun& a, const FlushRun& b) {
              return a.offset != b.offset ? a.offset < b.offset : a.begin < b.begin;
            });
  for (std::size_t r = 0; r < flush_runs_.size(); ++r) {
    if (r > 0 && flush_runs_[r].offset == flush_runs_[r - 1].offset) continue;
    ++flushes_pending_;
    sim_.schedule_after(flush_runs_[r].offset,
                        inline_closure([this, first_run = static_cast<std::uint32_t>(r),
                                        inc = incarnation_] {
                          if (inc != incarnation_) return;  // flush died with the crash
                          flush_gradients(first_run);
                        }));
  }
  sim_.schedule_after(timing_.backward_total(), inline_closure([this, inc = incarnation_] {
                        if (inc != incarnation_) return;  // backward died with the crash
                        end_backward();
                      }));
}

void ComputeLoop::flush_gradients(std::size_t first_run) {
  PROPHET_CHECK(flushes_pending_ > 0);
  --flushes_pending_;
  const Duration offset = flush_runs_[first_run].offset;
  std::size_t last = first_run + 1;
  while (last < flush_runs_.size() && flush_runs_[last].offset == offset) ++last;
  on_flush(std::span<const FlushRun>{flush_runs_}.subspan(first_run, last - first_run));
}

void ComputeLoop::end_backward() {
  gpu_.idle_from(sim_.now());
  ++iter_;
  begin_iteration();
}

void ComputeLoop::halt() {
  ++incarnation_;  // fences every scheduled compute callback
  flushes_pending_ = 0;
  waiting_ = false;
  if (gpu_.is_busy()) gpu_.idle_from(sim_.now());
}

void ComputeLoop::replay() {
  if (done()) return;
  training_.rewind_to(iter_);
  begin_iteration();
}

void ComputeLoop::finish() {
  gpu_.finish(sim_.now());
  training_.finish(sim_.now());
}

}  // namespace prophet::ps
