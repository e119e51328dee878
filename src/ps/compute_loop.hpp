// The worker compute timeline both architectures share (the paper's Fig. 6):
//   forward k   — layer by layer; layer i of iteration k requires the k-th
//                 update of key i (Eq. (3)). Waiting here is the GPU idle
//                 time T_wait that Prophet minimizes.
//   backward k  — continuous GPU work; gradients become transferable at the
//                 KVStore flush instants (the stepwise pattern), one event per
//                 distinct ready offset, in ascending offset and index order.
// An aggregation side derives from ComputeLoop and implements its private
// hooks: ps::Worker pushes to and pulls from the PS tier, the all-reduce ring
// member feeds the collective Coordinator and counts its reductions.
//
// Scheduled compute callbacks capture the incarnation they were scheduled
// under; halt() moves it, fencing them across a crash or rollback. The flush
// schedule lives in loop-owned buffers: steady state allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dnn/iteration_model.hpp"
#include "metrics/gpu_tracker.hpp"
#include "metrics/training_metrics.hpp"
#include "sim/simulator.hpp"

namespace prophet::ps {

class ComputeLoop {
 public:
  ComputeLoop(sim::Simulator& sim, std::size_t id, std::size_t iterations,
              const dnn::IterationModel* iteration_model, int batch,
              Duration metrics_bin, Duration metrics_horizon, Rng rng);
  ComputeLoop(const ComputeLoop&) = delete;
  ComputeLoop& operator=(const ComputeLoop&) = delete;
  virtual ~ComputeLoop() = default;

  // Kicks off iteration 0 at the current simulation time.
  void start();
  // An update arrived: a forward pass waiting on its gate resumes if the
  // gate opened.
  void on_update() {
    if (waiting_ && gate_open(fwd_layer_)) {
      waiting_ = false;
      advance_forward();
    }
  }
  // Closes open metric intervals; call once after the simulation drains.
  void finish();

  // Dynamics hook: stretches this worker's compute times (forward, backward
  // and gradient-ready offsets) by `factor` from the next sampled iteration
  // on (straggler injection; factor > 1 slows this worker down).
  void set_compute_factor(double factor);

  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] bool done() const { return iter_ >= iterations_; }
  [[nodiscard]] std::size_t current_iteration() const { return iter_; }

  // Moved out once, after training, into the worker's WorkerResult.
  [[nodiscard]] metrics::TrainingMetrics take_training_metrics() {
    return std::move(training_);
  }
  [[nodiscard]] metrics::GpuTracker take_gpu() { return std::move(gpu_); }

 protected:
  // A run of consecutive gradients [begin, end) sharing a ready offset.
  struct FlushRun {
    Duration offset;
    std::size_t begin;
    std::size_t end;
  };

  // Fences every scheduled compute callback and closes the GPU interval.
  void halt();
  // Moves the iteration counter back to `iteration` if it is ahead of it.
  void rewind_to(std::size_t iteration) { iter_ = std::min(iter_, iteration); }
  // Restarts the current iteration from the top of forward: its start mark is
  // re-recorded and its compute timing is re-sampled.
  void replay();

  sim::Simulator& sim_;

 private:
  // --- aggregation-side hooks ------------------------------------------------
  // Updates of `layer`'s key received so far; forward layer i of iteration k
  // runs once this reaches k.
  [[nodiscard]] virtual std::size_t updates_received(std::size_t layer) const = 0;
  // Iteration current_iteration() starts (also the final boundary, when done).
  virtual void on_iteration_start(TimePoint /*now*/) {}
  // Forward finished; backward of current_iteration() starts now.
  virtual void on_backward_start(TimePoint now) = 0;
  // One flush event: `runs` are the gradients ready at this offset, in
  // ascending index order.
  virtual void on_flush(std::span<const FlushRun> runs) = 0;

  void begin_iteration();
  void advance_forward();
  void begin_backward();
  // The flush event whose runs start at flush_runs_[first_run].
  void flush_gradients(std::size_t first_run);
  void end_backward();
  [[nodiscard]] bool gate_open(std::size_t layer) const {
    return iter_ == 0 || updates_received(layer) >= iter_;
  }

  std::size_t id_;
  std::size_t iterations_;
  const dnn::IterationModel* iteration_model_;
  Rng rng_;

  metrics::TrainingMetrics training_;
  metrics::GpuTracker gpu_;

  std::size_t iter_{0};
  std::size_t fwd_layer_{0};
  double compute_factor_{1.0};
  bool waiting_{false};
  dnn::IterationTiming timing_;
  std::uint32_t incarnation_{0};
  // Flush schedule of the current backward pass, sorted by (offset, first
  // gradient). Rewritten by every begin_backward, which checks that no flush
  // of the current incarnation is still pending.
  std::vector<FlushRun> flush_runs_;
  std::size_t flushes_pending_{0};
};

}  // namespace prophet::ps
