#include "ps/worker.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/inline_closure.hpp"

namespace prophet::ps {

Worker::Worker(sim::Simulator& sim, net::FlowNetwork& network, Params params, Rng rng)
    : ComputeLoop{sim, params.id, params.iterations, params.iteration_model,
                  params.batch, params.metrics_bin, params.metrics_horizon, rng},
      network_{network},
      params_{std::move(params)},
      transfer_log_{} {
  PROPHET_CHECK(params_.server != nullptr);
  PROPHET_CHECK_MSG(!params_.ps_nodes.empty(), "worker needs at least one PS endpoint");
  PROPHET_CHECK_MSG(params_.ps_nodes.size() == params_.server->num_shards(),
                    "worker endpoint count must match the server's shard count");
  const std::size_t n = params_.iteration_model->model().tensor_count();

  // Each channel owns its own RNG stream: transport loss draws must not
  // shift the compute-jitter sequence (fork draws nothing, so a loss-free
  // run is bit-identical to one without the channels). Shard 0 keeps the
  // historical stream id, so ps_shards=1 replays the single-channel
  // timeline exactly; sibling shards fork disjoint streams.
  for (std::size_t s = 0; s < params_.ps_nodes.size(); ++s) {
    channels_.push_back(std::make_unique<net::ReliableChannel>(
        sim, network, params_.reliability, rng.fork(0xfa017 + s)));
  }

  tx_monitor_ = std::make_unique<net::BandwidthMonitor>(
      sim_, network_, params_.node, net::Direction::kTx, params_.monitor);
  rx_monitor_ = std::make_unique<net::BandwidthMonitor>(
      sim_, network_, params_.node, net::Direction::kRx, params_.monitor);

  push_sched_ = make_scheduler(params_.strategy, sched::TaskKind::kPush, n,
                               [m = tx_monitor_.get()] { return m->estimate(); },
                               params_.cost);
  pull_sched_ = make_scheduler(params_.strategy, sched::TaskKind::kPull, n,
                               [m = rx_monitor_.get()] { return m->estimate(); },
                               params_.cost);

  pulls_done_.assign(n, 0);
  pull_pending_bytes_.assign(n, 0);
  pull_rounds_claimed_.assign(n, 0);
  push_rounds_done_.assign(n, 0);
  push_round_bytes_.assign(n, 0);
  enqueue_time_push_.assign(n, TimePoint::origin());
  enqueue_time_pull_.assign(n, TimePoint::origin());
  enqueue_iter_push_.assign(n, 0);
  ps_shard_down_.assign(params_.ps_nodes.size(), 0);

  for (auto& channel : channels_) {
    channel->set_fault_handler([this](const net::ChannelFault& fault) {
      transfer_log_.record_fault(
          {metrics::FaultKind::kTransportRetry, sim_.now(), fault.attempt});
      if (params_.auditor != nullptr) {
        params_.auditor->on_transport_retry(params_.id, sim_.now());
      }
    });
  }
}

sched::CommScheduler& Worker::scheduler(sched::TaskKind kind) {
  return kind == sched::TaskKind::kPush ? *push_sched_ : *pull_sched_;
}

bool Worker::all_ps_down() const {
  return std::all_of(ps_shard_down_.begin(), ps_shard_down_.end(),
                     [](std::uint8_t down) { return down != 0; });
}

bool Worker::any_ps_down() const {
  return std::any_of(ps_shard_down_.begin(), ps_shard_down_.end(),
                     [](std::uint8_t down) { return down != 0; });
}

std::size_t Worker::prophet_replans() const {
  if (const auto* prophet = dynamic_cast<const core::ProphetScheduler*>(
          push_sched_.get())) {
    return prophet->replan_count();
  }
  return 0;
}

void Worker::on_iteration_start(TimePoint now) {
  if (params_.auditor != nullptr) {
    params_.auditor->on_iteration_start(params_.id, current_iteration(), now);
  }
}

void Worker::on_backward_start(TimePoint now) {
  const std::size_t iter = current_iteration();
  if (params_.auditor != nullptr) {
    params_.auditor->on_backward_start(params_.id, iter, now);
  }
  transfer_log_.mark_backward_start(iter, now);

  // Iteration lifecycle hooks: iteration k-1 "ends" when forward k has
  // fully completed, i.e. right now.
  if (iter > 0) {
    push_sched_->on_iteration_end(iter - 1, now);
    pull_sched_->on_iteration_end(iter - 1, now);
  }
  push_sched_->on_iteration_start(iter, now);
  pull_sched_->on_iteration_start(iter, now);

  // Prophet: once the push side finishes profiling, share the profile with
  // the pull side and note the activation iteration (Fig. 13 boundary).
  if (auto* push_prophet = dynamic_cast<core::ProphetScheduler*>(push_sched_.get())) {
    if (push_prophet->profile_ready()) {
      if (!prophet_activated_at_.has_value()) prophet_activated_at_ = iter;
      if (auto* pull_prophet =
              dynamic_cast<core::ProphetScheduler*>(pull_sched_.get());
          pull_prophet != nullptr && !pull_prophet->profile_ready()) {
        pull_prophet->set_profile(push_prophet->profile());
      }
    }
  }
}

void Worker::on_flush(std::span<const FlushRun> runs) {
  const std::size_t iter = current_iteration();
  for (const FlushRun& run : runs) {
    for (std::size_t g = run.begin; g < run.end; ++g) {
      if (push_rounds_done_[g] > iter) {
        // Replayed backward: this key's round already aggregated at the PS
        // before the fault; re-sending it would double-count the gradient.
        push_sched_->on_gradient_skipped(g, sim_.now());
        continue;
      }
      enqueue_time_push_[g] = sim_.now();
      enqueue_iter_push_[g] = iter;
      push_sched_->enqueue(g, params_.iteration_model->model().tensor(g).bytes,
                           sim_.now());
    }
  }
  pump(sched::TaskKind::kPush);
}

void Worker::pump(sched::TaskKind kind) {
  if (crashed_ || all_ps_down()) return;  // no endpoint to talk to
  ActiveTask& active = active_task(kind);
  if (active.live) return;  // one task in flight per direction
  const TimePoint hold = kind == sched::TaskKind::kPush ? push_hold_ : pull_hold_;
  if (sim_.now() < hold) return;  // ack window; a pump is scheduled at `hold`
  if (!scheduler(kind).next_task(sim_.now(), active.task)) {
    // The scheduler may be holding tensors whose release is time-driven;
    // poll again shortly so such work cannot strand.
    sim::EventHandle& poll = kind == sched::TaskKind::kPush ? push_poll_ : pull_poll_;
    if (scheduler(kind).has_pending() && !poll.pending()) {
      poll = sim_.schedule_after(Duration::millis(1),
                                 inline_closure([this, kind] { pump(kind); }));
    }
    return;
  }

  // Fan the task out into one sub-flow per PS shard. Items addressed to a
  // downed shard are dropped here: the shard's failover rollback clears and
  // re-enqueues its keys' work, so sending would only double it later. The
  // per-shard buffers are sized by the first task and reused after it.
  const std::size_t shards = num_shards();
  active.live_on_shard.assign(shards, 0);
  shard_bytes_.assign(shards, Bytes::zero());
  bool dropped = false;
  for (const auto& item : active.task.items) {
    const std::size_t s = shard_of(item.grad);
    if (ps_shard_down_[s] != 0) {
      dropped = true;
      continue;
    }
    active.live_on_shard[s] = 1;
    shard_bytes_[s] += item.bytes;
  }
  const auto live = static_cast<std::size_t>(
      std::count(active.live_on_shard.begin(), active.live_on_shard.end(), 1));
  if (live == 0) {
    // The whole task addressed downed shards; it dies like an aborted
    // transfer and the next queued task gets the NIC.
    pump(kind);
    return;
  }

  active.live = true;
  active.started = sim_.now();
  active.open_subflows = live;
  active.lost_items = dropped;
  for (std::size_t s = 0; s < shards; ++s) {
    if (active.live_on_shard[s] == 0) continue;
    const net::NodeId src =
        kind == sched::TaskKind::kPush ? params_.node : params_.ps_nodes[s];
    const net::NodeId dst =
        kind == sched::TaskKind::kPush ? params_.ps_nodes[s] : params_.node;
    channels_[s]->send(src, dst, shard_bytes_[s],
                       inline_closure([this, kind, shard = static_cast<std::uint32_t>(s)](
                                          const net::SendOutcome& outcome) {
                         on_subflow_done(kind, shard, outcome);
                       }));
  }
}

void Worker::on_subflow_done(sched::TaskKind kind, std::size_t shard,
                             const net::SendOutcome& outcome) {
  const TimePoint now = sim_.now();
  ActiveTask& active = active_task(kind);
  PROPHET_CHECK(active.live && active.open_subflows > 0 &&
                active.live_on_shard[shard] != 0);
  active.live_on_shard[shard] = 0;

  // Nothing below starts another task in this direction (the task is still
  // live), so the items stay put while they are walked.
  for (const auto& item : active.task.items) {
    if (shard_of(item.grad) != shard) continue;
    metrics::TransferRecord rec;
    // Attribute the record to the round the tensor was enqueued in: pushes
    // belong to their backward iteration, pulls to the matching update.
    rec.iteration = kind == sched::TaskKind::kPush ? enqueue_iter_push_[item.grad]
                                                   : pulls_done_[item.grad];
    rec.grad = item.grad;
    rec.kind = kind;
    rec.bytes = item.bytes;
    rec.enqueued = kind == sched::TaskKind::kPush ? enqueue_time_push_[item.grad]
                                                  : enqueue_time_pull_[item.grad];
    rec.started = active.started;
    rec.finished = now;
    rec.attempts = outcome.attempts;
    transfer_log_.record(rec);

    if (kind == sched::TaskKind::kPush) {
      params_.server->on_push_bytes(params_.id, item.grad, item.bytes);
      const std::int64_t full =
          params_.iteration_model->model().tensor(item.grad).bytes.count();
      push_round_bytes_[item.grad] += item.bytes.count();
      PROPHET_CHECK(push_round_bytes_[item.grad] <= full);
      if (push_round_bytes_[item.grad] == full) {
        push_round_bytes_[item.grad] = 0;
        ++push_rounds_done_[item.grad];
      }
    } else {
      pull_pending_bytes_[item.grad] -= item.bytes.count();
      PROPHET_CHECK(pull_pending_bytes_[item.grad] >= 0);
      if (pull_pending_bytes_[item.grad] == 0) {
        ++pulls_done_[item.grad];
        if (params_.auditor != nullptr) {
          params_.auditor->on_pull_complete(params_.id, item.grad,
                                            pulls_done_[item.grad], now);
        }
        on_update();
      }
    }
  }
  close_subflow(kind);
}

void Worker::close_subflow(sched::TaskKind kind) {
  ActiveTask& active = active_task(kind);
  if (--active.open_subflows > 0) return;
  active.live = false;
  if (active.lost_items) {
    // A sub-flow died with a shard (or items were dropped at send time):
    // the task never fully delivered, so it ends without on_task_done —
    // exactly how a whole-tier abort ends a task. The rollback re-enqueues
    // what the lost items owed.
    pump(kind);
    return;
  }
  const TimePoint now = sim_.now();
  scheduler(kind).on_task_done(active.task, active.started, now);
  // Read before pump() refills the buffer with the next task.
  const Duration post_delay = active.task.post_delay;
  if (post_delay > Duration::zero()) {
    // Credit-based flow control: hold the NIC until the window-replenishing
    // acknowledgment returns.
    TimePoint& hold = kind == sched::TaskKind::kPush ? push_hold_ : pull_hold_;
    hold = now + post_delay;
    sim_.schedule_after(post_delay, inline_closure([this, kind] { pump(kind); }));
  } else {
    pump(kind);
  }
}

void Worker::detach_subflows(std::size_t shard) {
  for (const auto kind : {sched::TaskKind::kPush, sched::TaskKind::kPull}) {
    ActiveTask& active = active_task(kind);
    if (!active.live || active.live_on_shard[shard] == 0) continue;
    // The aborted sub-flow's completion callback never fires; account for it
    // here so the surviving sub-flows can still close the task (silently —
    // part of it was lost).
    active.live_on_shard[shard] = 0;
    active.lost_items = true;
    if (--active.open_subflows == 0) active.live = false;
  }
}

void Worker::on_param_updated(std::size_t key) {
  // A crashed (or PS-orphaned) worker misses the announcement; recovery
  // re-derives it from the claimed-vs-version gap.
  if (crashed_ || ps_shard_down_[shard_of(key)] != 0) return;
  if (pull_rounds_claimed_[key] >= params_.server->version(key)) return;
  claim_pull(key);
  pump(sched::TaskKind::kPull);
}

void Worker::claim_pull(std::size_t key) {
  const Bytes size = params_.iteration_model->model().tensor(key).bytes;
  PROPHET_CHECK_MSG(pull_pending_bytes_[key] == 0,
                    "param update claimed while a previous pull is still pending");
  ++pull_rounds_claimed_[key];
  pull_pending_bytes_[key] = size.count();
  enqueue_time_pull_[key] = sim_.now();
  pull_sched_->enqueue(key, size, sim_.now());
}

void Worker::reclaim_missed_pulls() {
  for (std::size_t key = 0; key < pull_rounds_claimed_.size(); ++key) {
    if (pull_rounds_claimed_[key] < params_.server->version(key)) claim_pull(key);
  }
}

void Worker::repush_owed_rounds() {
  const std::size_t iter = current_iteration();
  if (iter == 0) return;
  for (std::size_t g = 0; g < push_rounds_done_.size(); ++g) {
    if (push_rounds_done_[g] >= iter) continue;
    // The round-k barrier precedes backward k, so the debt is exactly the
    // one round whose transfers were in flight when the fault hit.
    PROPHET_CHECK_MSG(push_rounds_done_[g] + 1 == iter,
                      "fault recovery found a push debt deeper than one round; "
                      "the BSP barrier should have stopped the worker earlier");
    enqueue_time_push_[g] = sim_.now();
    enqueue_iter_push_[g] = iter - 1;
    push_sched_->enqueue(g, params_.iteration_model->model().tensor(g).bytes,
                         sim_.now());
  }
}

void Worker::halt_inflight() {
  halt();
  for (auto& channel : channels_) channel->abort_all();
  push_active_.live = false;
  pull_active_.live = false;
  push_poll_.cancel();
  pull_poll_.cancel();
  push_hold_ = TimePoint::origin();
  pull_hold_ = TimePoint::origin();
  std::fill(pull_pending_bytes_.begin(), pull_pending_bytes_.end(), 0);
  std::fill(push_round_bytes_.begin(), push_round_bytes_.end(), 0);
}

void Worker::crash() {
  PROPHET_CHECK_MSG(!crashed_, "worker crashed while already down");
  crashed_ = true;
  halt_inflight();
  // Announcements delivered while down are lost; recovery re-claims the gap
  // between what the pull pipeline had accepted and the server's version.
  pull_rounds_claimed_ = pulls_done_;
  params_.server->on_worker_crash(params_.id);
  transfer_log_.record_fault({metrics::FaultKind::kWorkerCrash, sim_.now(), 0});
  if (params_.auditor != nullptr) {
    params_.auditor->on_worker_crash(params_.id, sim_.now());
  }
}

void Worker::recover() {
  PROPHET_CHECK_MSG(crashed_, "worker recover without a crash");
  crashed_ = false;
  transfer_log_.record_fault({metrics::FaultKind::kWorkerRecover, sim_.now(), 0});
  if (params_.auditor != nullptr) {
    params_.auditor->on_worker_recover(params_.id, sim_.now());
  }
  // Queued scheduler work refers to the interrupted round; drop it (Prophet
  // re-plans from its surviving profile, the others start clean).
  push_sched_->on_recovery(sim_.now());
  pull_sched_->on_recovery(sim_.now());
  // rollback() restarts the pipeline once the PS is back. A partially-down
  // tier keeps serving: work addressed to the downed shard is dropped at
  // send time and re-enqueued by that shard's rollback.
  if (all_ps_down()) return;
  reclaim_missed_pulls();
  repush_owed_rounds();
  replay();
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::on_ps_crash() {
  PROPHET_CHECK_MSG(!any_ps_down(), "PS crashed while already down");
  std::fill(ps_shard_down_.begin(), ps_shard_down_.end(), std::uint8_t{1});
  halt_inflight();
  // In-flight pull claims died with the PS round state.
  pull_rounds_claimed_ = pulls_done_;
  transfer_log_.record_fault({metrics::FaultKind::kPsCrash, sim_.now(), 0});
}

void Worker::on_ps_shard_crash(std::size_t shard) {
  PROPHET_CHECK(shard < num_shards());
  PROPHET_CHECK_MSG(ps_shard_down_[shard] == 0, "PS shard crashed while already down");
  ps_shard_down_[shard] = 1;
  // Only this shard's endpoint died: abort its channel, detach its sub-flows
  // from the active tasks, and leave compute unfenced — forward stalls only
  // when (and if) it reaches a layer that needs a shard-k pull.
  channels_[shard]->abort_all();
  detach_subflows(shard);
  for (std::size_t key = shard; key < pulls_done_.size(); key += num_shards()) {
    // In-flight pulls of the shard's keys died with its round state, and the
    // server-side crash wiped their open partial pushes; mirror both.
    pull_pending_bytes_[key] = 0;
    pull_rounds_claimed_[key] = pulls_done_[key];
    push_round_bytes_[key] = 0;
  }
  transfer_log_.record_fault({metrics::FaultKind::kPsCrash, sim_.now(), 0});
  if (crashed_ || all_ps_down()) return;
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::rollback(const std::vector<std::size_t>& versions) {
  PROPHET_CHECK_MSG(all_ps_down(), "rollback without a PS crash");
  PROPHET_CHECK(versions.size() == pulls_done_.size());
  halt_inflight();
  std::size_t target = params_.iterations;
  for (std::size_t k = 0; k < versions.size(); ++k) {
    // Force a re-pull of the snapshot round: the restored parameter value
    // must reach the worker even if it had pulled that round before.
    pulls_done_[k] = versions[k] > 0 ? versions[k] - 1 : 0;
    pull_rounds_claimed_[k] = pulls_done_[k];
    push_rounds_done_[k] = std::min(push_rounds_done_[k], versions[k]);
    target = std::min(target, versions[k]);
  }
  rewind_to(target);
  std::fill(ps_shard_down_.begin(), ps_shard_down_.end(), std::uint8_t{0});
  transfer_log_.record_fault({metrics::FaultKind::kPsFailover, sim_.now(), 0});
  push_sched_->on_recovery(sim_.now());
  pull_sched_->on_recovery(sim_.now());
  if (crashed_) return;  // this worker restarts on its own recover()
  reclaim_missed_pulls();
  repush_owed_rounds();
  replay();
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::rollback_shard(std::size_t shard,
                            const std::vector<std::size_t>& versions) {
  PROPHET_CHECK(shard < num_shards());
  PROPHET_CHECK_MSG(ps_shard_down_[shard] != 0, "rollback without a PS crash");
  PROPHET_CHECK(versions.size() == pulls_done_.size());
  // Every direction restarts: the halt aborts in-flight transfers on every
  // shard, so open partial pushes on surviving shards must be discarded
  // server-side too — their rounds re-send whole during replay.
  halt_inflight();
  params_.server->discard_open_pushes(params_.id);
  // Interrupted pull claims (on any shard) are re-derived from the
  // claimed-vs-version gap below.
  pull_rounds_claimed_ = pulls_done_;
  std::size_t target = params_.iterations;
  for (std::size_t key = shard; key < versions.size(); key += num_shards()) {
    // Only the shard's keys roll back; `versions` carries the surviving
    // keys' live versions through verbatim (the server's recover_shard
    // contract, version-fenced by the auditor).
    pulls_done_[key] = versions[key] > 0 ? versions[key] - 1 : 0;
    pull_rounds_claimed_[key] = pulls_done_[key];
    push_rounds_done_[key] = std::min(push_rounds_done_[key], versions[key]);
    target = std::min(target, versions[key]);
  }
  rewind_to(target);
  ps_shard_down_[shard] = 0;
  transfer_log_.record_fault({metrics::FaultKind::kPsFailover, sim_.now(), 0});
  // Shard-aware schedule repair: strategies learn which keys rolled back
  // (Prophet re-plans immediately from its still-warm bandwidth estimate).
  std::vector<std::uint8_t> affected(versions.size(), 0);
  for (std::size_t key = shard; key < affected.size(); key += num_shards()) {
    affected[key] = 1;
  }
  push_sched_->on_partial_recovery(affected, sim_.now());
  pull_sched_->on_partial_recovery(affected, sim_.now());
  if (crashed_) return;  // this worker restarts on its own recover()
  reclaim_missed_pulls();
  repush_owed_rounds();
  replay();
  pump(sched::TaskKind::kPush);
  pump(sched::TaskKind::kPull);
}

void Worker::set_loss_rate(double rate) {
  for (auto& channel : channels_) channel->set_loss_rate(rate);
}

void Worker::finish() {
  ComputeLoop::finish();
  tx_monitor_->stop();
  rx_monitor_->stop();
}

}  // namespace prophet::ps
