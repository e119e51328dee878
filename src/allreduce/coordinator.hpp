// Collective scheduling coordinator: the all-reduce counterpart of the PS.
//
// Gradients become *collectively ready* when every worker has produced
// them; the coordinator feeds ready tensors into a single CommScheduler
// instance (any of the six strategies — this is how PACE-style preemptive
// all-reduce scheduling and Prophet's block assembly transfer to the
// all-reduce architecture) and executes the emitted groups as fused ring
// collectives, one at a time. When a tensor's reduction completes, every
// worker is notified (its next forward pass ungates).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "allreduce/ring.hpp"
#include "dnn/tensor.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace prophet::ar {

class Coordinator {
 public:
  // `on_reduced(worker, key)` fires for every worker when `key`'s
  // all-reduce completes.
  using ReducedCallback = std::function<void(std::size_t worker, std::size_t key)>;

  Coordinator(sim::Simulator& sim, net::FlowNetwork& network,
              std::vector<net::NodeId> nodes, const dnn::ModelSpec& model,
              std::unique_ptr<sched::CommScheduler> scheduler,
              ReducedCallback on_reduced);

  // Worker `worker` finished producing gradient `key` this round.
  void on_gradient_ready(std::size_t worker, std::size_t key);
  // Iteration lifecycle, forwarded to the scheduler (worker 0's backward
  // start stands in for the synchronized BSP round boundary).
  void on_iteration_start(std::size_t iteration, TimePoint now);
  void on_iteration_end(std::size_t iteration, TimePoint now);

  [[nodiscard]] std::size_t reductions_completed(std::size_t key) const;

 private:
  void pump();
  void on_collective_done(std::size_t slot);

  sim::Simulator& sim_;
  std::size_t num_workers_;
  std::unique_ptr<sched::CommScheduler> scheduler_;
  ReducedCallback on_reduced_;
  RingAllReduce ring_;

  struct KeyState {
    Bytes size;
    std::size_t arrived = 0;   // workers ready this round
    std::int64_t reduced = 0;  // bytes reduced this round (partial fusion)
    std::size_t versions = 0;
  };
  std::vector<KeyState> keys_;
  sim::EventHandle poll_;

  // Task buffers reused across collectives. The ring reports completion one
  // zero-delay event after it frees up, so a pump in between may start the
  // next collective while the previous task still awaits its completion
  // handler: two slots, used alternately.
  struct Collective {
    sched::TransferTask task;
    TimePoint started{};
    bool live = false;
  };
  std::array<Collective, 2> collectives_;
  std::size_t next_slot_{0};
};

}  // namespace prophet::ar
