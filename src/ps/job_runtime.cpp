#include "ps/job_runtime.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace prophet::ps {

JobRuntime::JobRuntime(sim::Simulator& sim, net::FlowNetwork& network,
                       net::BuiltTopology& topology, ClusterConfig config,
                       JobOptions options)
    : sim_{sim},
      network_{network},
      config_{std::move(config)},
      options_{std::move(options)},
      cost_{config_.tcp} {
  const ClusterConfig& cfg = config_;
  // Offset jobs still record metrics against the shared origin-based clock,
  // so their series horizon shifts with them.
  const Duration metrics_horizon = cfg.metrics_horizon + options_.start_offset;

  // One host per PS shard. The single-shard tier keeps the historical bare
  // "ps" name (and with it the historical topology and event order); a
  // sharded tier numbers its hosts ps0..psN-1.
  for (std::size_t s = 0; s < cfg.ps_shards; ++s) {
    const std::string name =
        cfg.ps_shards == 1 ? "ps" : "ps" + std::to_string(s);
    ps_nodes_.push_back(topology.add_host(options_.name_prefix + name,
                                          node_base_bandwidth(/*is_ps=*/true, 0),
                                          options_.ps_rack));
  }
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    std::optional<std::size_t> rack;
    if (w < options_.worker_racks.size()) rack = options_.worker_racks[w];
    worker_nodes_.push_back(
        topology.add_host(options_.name_prefix + "worker" + std::to_string(w),
                          cfg.bandwidth_of_worker(w), rack));
  }

  // Per-worker throughput series, attached before any traffic flows.
  tx_series_.assign(cfg.num_workers, BinnedSeries{cfg.metrics_bin, metrics_horizon});
  rx_series_.assign(cfg.num_workers, BinnedSeries{cfg.metrics_bin, metrics_horizon});
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    network_.attach_tracker(worker_nodes_[w], net::Direction::kTx, &tx_series_[w]);
    network_.attach_tracker(worker_nodes_[w], net::Direction::kRx, &rx_series_[w]);
  }

  iteration_model_ = std::make_unique<dnn::IterationModel>(
      cfg.model, cfg.gpu, cfg.batch, cfg.kvstore, cfg.jitter_sigma);

  // BSP invariant auditor: passive mirror of the push/pull/round protocol,
  // always on under BSP. Aborts with a diagnostic on the first violated
  // invariant (lost or double-counted gradient, broken barrier, ...).
  if (cfg.sync == SyncMode::kBsp) {
    std::vector<Bytes> key_sizes;
    for (std::size_t k = 0; k < cfg.model.tensor_count(); ++k) {
      key_sizes.push_back(cfg.model.tensor(k).bytes);
    }
    auditor_ = std::make_unique<audit::BspAuditor>(
        cfg.num_workers, std::move(key_sizes), cfg.ps_shards);
  }

  server_ = std::make_unique<Server>(
      sim_, cfg.model, cfg.num_workers, cfg.sync == SyncMode::kAsp,
      cfg.update_fixed, cfg.update_bytes_per_sec,
      [this](std::size_t w, std::size_t key) {
        workers_[w]->on_param_updated(key);
      },
      cfg.serialize_ps_cpu, cfg.ps_shards);
  server_->set_auditor(auditor_.get());
  if (cfg.dynamics.has_ps_crash()) server_->enable_failover(cfg.checkpoint_period);

  Rng root{cfg.seed};
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    Worker::Params params;
    params.id = w;
    params.node = worker_nodes_[w];
    params.ps_nodes = ps_nodes_;
    params.iterations = cfg.iterations;
    params.iteration_model = iteration_model_.get();
    params.server = server_.get();
    params.strategy = cfg.strategy;
    params.cost = cost_;
    params.monitor = cfg.monitor;
    params.metrics_bin = cfg.metrics_bin;
    params.metrics_horizon = metrics_horizon;
    params.batch = cfg.batch;
    params.reliability = cfg.reliability;
    params.auditor = auditor_.get();
    workers_.push_back(
        std::make_unique<Worker>(sim_, network_, params, root.fork(w)));
  }
}

Bandwidth JobRuntime::node_base_bandwidth(bool is_ps, std::size_t w) const {
  const net::TopologySpec spec = config_.resolved_topology();
  if (spec.kind == net::TopologySpec::Kind::kLeafSpine) return spec.host_bandwidth;
  return is_ps ? spec.ps_bandwidth : config_.bandwidth_of_worker(w);
}

void JobRuntime::start() {
  // Zero offset starts workers synchronously — no extra scheduled event, so
  // a solo job replays the pre-JobRuntime event sequence exactly.
  if (options_.start_offset == Duration::zero()) {
    for (auto& worker : workers_) worker->start();
  } else {
    sim_.schedule_at(start_time(), [this] {
      for (auto& worker : workers_) worker->start();
    });
  }

  // Arm the dynamics plan: every event fires at its offset (relative to the
  // job's start) and mutates the live network / workers / server. Bandwidth
  // scales apply to the *configured* rates, so repeated events never
  // compound; link-targeted events snapshot those rates here, at arm time.
  for (const auto& ev : config_.dynamics.events) {
    if (ev.targets_link()) {
      for (const net::LinkId id : net::resolve_link_target(network_, ev.link)) {
        link_base_caps_.emplace(id, network_.link_capacity(id));
      }
    }
    sim_.schedule_at(start_time() + ev.at, [this, ev] { apply_event(ev); });
  }
}

void JobRuntime::apply_event(const net::DynamicsEvent& ev) {
  using Type = net::DynamicsEvent::Type;
  const ClusterConfig& cfg = config_;
  // PS-targeted node events fan out to every shard's host, or to the single
  // shard the event names.
  auto for_each_ps_node = [&](auto&& fn) {
    if (ev.ps_shard.has_value()) {
      fn(ps_nodes_[*ev.ps_shard]);
    } else {
      for (const net::NodeId node : ps_nodes_) fn(node);
    }
  };
  auto for_each_node = [&](auto&& fn) {
    if (ev.target_ps) {
      for_each_ps_node(fn);
    } else if (ev.worker.has_value()) {
      fn(worker_nodes_[*ev.worker]);
    } else {
      for (const net::NodeId node : worker_nodes_) fn(node);
    }
  };
  auto for_each_worker = [&](auto&& fn) {
    if (ev.worker.has_value()) {
      fn(*ev.worker);
    } else {
      for (std::size_t w = 0; w < cfg.num_workers; ++w) fn(w);
    }
  };
  // A link-targeted bandwidth/outage event bypasses the per-node fan-out and
  // hits the named links directly (they may be shared rack uplinks).
  if (ev.targets_link()) {
    const std::vector<net::LinkId> links =
        net::resolve_link_target(network_, ev.link);
    PROPHET_CHECK_MSG(!links.empty(),
                      "dynamics event targets an unknown link name");
    for (const net::LinkId id : links) {
      switch (ev.type) {
        case Type::kBandwidthScale:
          network_.set_link_capacity(id, link_base_caps_.at(id) * ev.factor);
          break;
        case Type::kBandwidthSet:
          network_.set_link_capacity(id, ev.bandwidth);
          break;
        case Type::kOutageStart:
        case Type::kOutageEnd:
          network_.set_link_state(id, ev.type == Type::kOutageEnd);
          break;
        default:
          break;  // rejected by DynamicsPlan::validate()
      }
    }
    return;
  }
  switch (ev.type) {
    case Type::kBandwidthScale:
    case Type::kBandwidthSet:
      if (ev.target_ps) {
        const Bandwidth base = node_base_bandwidth(/*is_ps=*/true, 0);
        const Bandwidth cap =
            ev.type == Type::kBandwidthSet ? ev.bandwidth : base * ev.factor;
        for_each_ps_node([&](net::NodeId node) {
          network_.set_capacity(node, net::Direction::kTx, cap);
          network_.set_capacity(node, net::Direction::kRx, cap);
        });
      } else {
        for_each_worker([&](std::size_t w) {
          const Bandwidth base = node_base_bandwidth(/*is_ps=*/false, w);
          const Bandwidth cap =
              ev.type == Type::kBandwidthSet ? ev.bandwidth : base * ev.factor;
          network_.set_capacity(worker_nodes_[w], net::Direction::kTx, cap);
          network_.set_capacity(worker_nodes_[w], net::Direction::kRx, cap);
        });
      }
      break;
    case Type::kOutageStart:
    case Type::kOutageEnd:
      for_each_node([&](net::NodeId node) {
        network_.set_link_up(node, ev.type == Type::kOutageEnd);
      });
      break;
    case Type::kComputeScale:
      for_each_worker([&](std::size_t w) {
        workers_[w]->set_compute_factor(ev.factor);
      });
      break;
    case Type::kPsComputeScale:
      if (ev.ps_shard.has_value()) {
        server_->set_shard_cpu_factor(*ev.ps_shard, ev.factor);
      } else {
        server_->set_cpu_factor(ev.factor);
      }
      break;
    case Type::kWorkerCrash:
      if (faults_live_) workers_[*ev.worker]->crash();
      break;
    case Type::kWorkerRecover:
      if (faults_live_) workers_[*ev.worker]->recover();
      break;
    case Type::kPsCrash:
      if (!faults_live_) break;
      if (ev.ps_shard.has_value()) {
        // Single failure domain: only this shard's host drops off the fabric
        // and only its keys stop serving.
        server_->crash_shard(*ev.ps_shard);
        network_.set_link_up(ps_nodes_[*ev.ps_shard], false);
        for (auto& worker : workers_) worker->on_ps_shard_crash(*ev.ps_shard);
      } else {
        server_->crash();
        for (const net::NodeId node : ps_nodes_) network_.set_link_up(node, false);
        for (auto& worker : workers_) worker->on_ps_crash();
      }
      break;
    case Type::kPsRecover:
      if (!faults_live_) break;
      if (ev.ps_shard.has_value()) {
        network_.set_link_up(ps_nodes_[*ev.ps_shard], true);
        const std::vector<std::size_t> snapshot =
            server_->recover_shard(*ev.ps_shard);
        for (auto& worker : workers_) worker->rollback_shard(*ev.ps_shard, snapshot);
      } else {
        for (const net::NodeId node : ps_nodes_) network_.set_link_up(node, true);
        const std::vector<std::size_t> snapshot = server_->recover();
        for (auto& worker : workers_) worker->rollback(snapshot);
      }
      break;
    case Type::kLossRate:
      if (faults_live_) {
        for (auto& worker : workers_) worker->set_loss_rate(ev.factor);
      }
      break;
  }
}

bool JobRuntime::done() const {
  return std::all_of(workers_.begin(), workers_.end(),
                     [](const auto& w) { return w->done(); });
}

void JobRuntime::recover_crashed() {
  for (auto& worker : workers_) {
    if (worker->crashed()) worker->recover();
  }
}

void JobRuntime::finish_training(TimePoint now) {
  training_span_ = now - start_time();
  for (auto& worker : workers_) worker->finish();
}

void JobRuntime::finish_audit() {
  if (auditor_ != nullptr) auditor_->finish(config_.iterations);
}

ClusterResult JobRuntime::collect(std::optional<std::size_t> measure_first,
                                  std::uint64_t events_fired) {
  PROPHET_CHECK_MSG(!collected_, "JobRuntime::collect: results were already handed over");
  collected_ = true;
  const ClusterConfig& cfg = config_;
  // Evaluated only without an explicit window: short runs measuring a
  // window of their own need not clear the warmup.
  const std::size_t first =
      measure_first.has_value() ? *measure_first : default_measure_first(cfg);
  const std::size_t last = cfg.iterations;

  ClusterResult result;
  result.measure_first = first;
  result.measure_last = last;
  result.simulated_time = training_span_;
  result.events_fired = events_fired;
  result.audit_checks = auditor_ != nullptr ? auditor_->checks_run() : 0;
  result.rebalance = network_.rebalance_stats();
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    Worker& worker = *workers_[w];
    WorkerResult wr = WorkerResult::measure(
        w, first, last, worker.current_iteration(), worker.take_training_metrics(),
        worker.take_gpu(), std::move(tx_series_[w]), std::move(rx_series_[w]));
    wr.prophet_activated_at = worker.prophet_activated_at();
    wr.prophet_replans = worker.prophet_replans();
    wr.transfers = worker.take_transfers();
    result.workers.push_back(std::move(wr));
  }
  return result;
}

void run_jobs(sim::Simulator& sim,
              const std::vector<std::unique_ptr<JobRuntime>>& jobs,
              TimePoint horizon) {
  for (const auto& job : jobs) job->start();
  std::vector<bool> finished(jobs.size(), false);
  std::size_t remaining = jobs.size();
  auto finalize_done = [&] {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (finished[j] || !jobs[j]->done()) continue;
      jobs[j]->recover_crashed();
      jobs[j]->disarm_faults();
      jobs[j]->finish_training(sim.now());
      finished[j] = true;
      --remaining;
    }
  };
  finalize_done();
  while (remaining > 0 && sim.now() < horizon) {
    if (!sim.step()) break;
    finalize_done();
  }
  PROPHET_CHECK_MSG(remaining == 0,
                    "run_jobs: a job did not finish training within the horizon");
  sim.run_until(horizon);
  for (const auto& job : jobs) job->finish_audit();
}

}  // namespace prophet::ps
