#include "allreduce/coordinator.hpp"

#include "common/check.hpp"
#include "common/inline_closure.hpp"

namespace prophet::ar {

Coordinator::Coordinator(sim::Simulator& sim, net::FlowNetwork& network,
                         std::vector<net::NodeId> nodes, const dnn::ModelSpec& model,
                         std::unique_ptr<sched::CommScheduler> scheduler,
                         ReducedCallback on_reduced)
    : sim_{sim},
      num_workers_{nodes.size()},
      scheduler_{std::move(scheduler)},
      on_reduced_{std::move(on_reduced)},
      ring_{sim, network, std::move(nodes)} {
  PROPHET_CHECK(scheduler_ != nullptr);
  PROPHET_CHECK(on_reduced_ != nullptr);
  keys_.resize(model.tensor_count());
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    keys_[k].size = model.tensor(k).bytes;
  }
}

void Coordinator::on_gradient_ready(std::size_t worker, std::size_t key) {
  PROPHET_CHECK(key < keys_.size());
  PROPHET_CHECK(worker < num_workers_);
  KeyState& state = keys_[key];
  ++state.arrived;
  PROPHET_CHECK_MSG(state.arrived <= num_workers_,
                    "gradient readiness over-reported");
  if (state.arrived == num_workers_) {
    state.arrived = 0;
    scheduler_->enqueue(key, state.size, sim_.now());
    pump();
  }
}

void Coordinator::on_iteration_start(std::size_t iteration, TimePoint now) {
  scheduler_->on_iteration_start(iteration, now);
}

void Coordinator::on_iteration_end(std::size_t iteration, TimePoint now) {
  scheduler_->on_iteration_end(iteration, now);
}

std::size_t Coordinator::reductions_completed(std::size_t key) const {
  PROPHET_CHECK(key < keys_.size());
  return keys_[key].versions;
}

void Coordinator::pump() {
  if (ring_.busy()) return;
  const std::size_t slot = next_slot_;
  Collective& collective = collectives_[slot];
  PROPHET_CHECK_MSG(!collective.live, "collective task buffer still in use");
  if (!scheduler_->next_task(sim_.now(), collective.task)) {
    if (scheduler_->has_pending() && !poll_.pending()) {
      poll_ = sim_.schedule_after(Duration::millis(1), [this] { pump(); });
    }
    return;
  }
  collective.started = sim_.now();
  collective.live = true;
  next_slot_ = 1 - slot;
  ring_.run(collective.task.total_bytes(),
            inline_closure([this, slot] { on_collective_done(slot); }));
}

void Coordinator::on_collective_done(std::size_t slot) {
  Collective& collective = collectives_[slot];
  const sched::TransferTask& task = collective.task;
  scheduler_->on_task_done(task, collective.started, sim_.now());
  for (const auto& item : task.items) {
    KeyState& state = keys_[item.grad];
    state.reduced += item.bytes.count();
    PROPHET_CHECK(state.reduced <= state.size.count());
    if (state.reduced == state.size.count()) {
      state.reduced = 0;
      ++state.versions;
      for (std::size_t w = 0; w < num_workers_; ++w) on_reduced_(w, item.grad);
    }
  }
  collective.live = false;
  pump();
}

}  // namespace prophet::ar
