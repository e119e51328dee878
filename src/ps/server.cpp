#include "ps/server.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/inline_closure.hpp"

namespace prophet::ps {

Server::Server(sim::Simulator& sim, const dnn::ModelSpec& model,
               std::size_t num_workers, bool asp, Duration update_fixed,
               double update_bytes_per_sec, UpdateCallback on_updated,
               bool serialize_cpu, std::size_t ps_shards)
    : sim_{sim},
      num_workers_{num_workers},
      asp_{asp},
      update_fixed_{update_fixed},
      update_bytes_per_sec_{update_bytes_per_sec},
      on_updated_{std::move(on_updated)},
      serialize_cpu_{serialize_cpu},
      shard_map_{ps_shards} {
  PROPHET_CHECK(num_workers_ > 0);
  PROPHET_CHECK(update_bytes_per_sec_ > 0.0);
  PROPHET_CHECK(on_updated_ != nullptr);
  PROPHET_CHECK_MSG(ps_shards <= model.tensor_count(),
                    "Server: more PS shards than keys — trailing shards would "
                    "own nothing");
  shards_.resize(ps_shards);
  keys_.resize(model.tensor_count());
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    keys_[k].size = model.tensor(k).bytes;
    keys_[k].received.assign(num_workers_, 0);
  }
}

void Server::on_push_bytes(std::size_t worker, std::size_t key, Bytes bytes) {
  PROPHET_CHECK(key < keys_.size());
  PROPHET_CHECK(worker < num_workers_);
  const std::size_t shard = shard_map_.shard_of(key);
  PROPHET_CHECK_MSG(!shards_[shard].crashed,
                    "push delivered to a crashed PS shard — workers must abort "
                    "their in-flight transfers to it on ps_crash");
  if (auditor_ != nullptr) {
    auditor_->on_push_delivered(worker, key, bytes, sim_.now());
  }
  KeyState& state = keys_[key];
  state.received[worker] += bytes.count();
  PROPHET_CHECK_MSG(state.received[worker] <= state.size.count(),
                    "worker pushed more bytes than the key holds this round");
  if (state.received[worker] < state.size.count()) return;

  if (asp_) {
    // ASP: this worker's contribution updates immediately and only this
    // worker learns the new value.
    state.received[worker] = 0;
    ++state.versions;
    const Duration cost =
        // prophet-lint: allow(R1): update-cost model divides bytes by a double bytes/sec rate; single rounding point into Duration
        update_fixed_ + Duration::from_seconds(
                            static_cast<double>(state.size.count()) /
                            update_bytes_per_sec_);
    const std::size_t k = key;
    const std::size_t w = worker;
    schedule_update(shard, cost, [this, w, k, shard, e = shards_[shard].epoch] {
      if (e != shards_[shard].epoch) return;
      on_updated_(w, k);
    });
    return;
  }

  ++state.arrived;
  PROPHET_CHECK(state.arrived <= num_workers_);
  if (state.arrived == num_workers_) complete_round(key);
}

void Server::complete_round(std::size_t key) {
  if (auditor_ != nullptr) auditor_->on_round_complete(key, sim_.now());
  const std::size_t shard = shard_map_.shard_of(key);
  KeyState& state = keys_[key];
  state.arrived = 0;
  std::fill(state.received.begin(), state.received.end(), 0);
  ++state.versions;
  if (failover_enabled_) shards_[shard].round_log.push_back({sim_.now(), key});
  // Aggregation of W copies + optimizer step, charged per byte.
  const Duration cost =
      update_fixed_ +
      // prophet-lint: allow(R1): update-cost model divides bytes by a double bytes/sec rate; single rounding point into Duration
      Duration::from_seconds(static_cast<double>(state.size.count()) *
                             static_cast<double>(num_workers_) /
                             update_bytes_per_sec_);
  // One update per completed round: the closure stays within std::function's
  // inline buffer (the shard is re-derived from the key).
  schedule_update(shard, cost,
                  inline_closure([this, k = static_cast<std::uint32_t>(key),
                                  e = shards_[shard].epoch] {
                    if (e != shards_[shard_map_.shard_of(k)].epoch) return;
                    for (std::size_t w = 0; w < num_workers_; ++w) on_updated_(w, k);
                  }));
}

void Server::enable_failover(Duration period) {
  PROPHET_CHECK_MSG(period > Duration::zero(),
                    "checkpoint period must be positive");
  PROPHET_CHECK_MSG(!asp_, "checkpoint failover is a BSP mechanism");
  failover_enabled_ = true;
  failover_period_ = period;
}

void Server::crash() {
  for (std::size_t s = 0; s < shards_.size(); ++s) crash_shard(s);
}

void Server::crash_shard(std::size_t shard) {
  PROPHET_CHECK(shard < shards_.size());
  ShardState& ps = shards_[shard];
  PROPHET_CHECK_MSG(!ps.crashed, "PS shard crashed while already down");
  ps.crashed = true;
  ++ps.epoch;  // updates in this shard's CPU pipeline die with the process
  ps.crash_time = sim_.now();
  ps.cpu_free = TimePoint::origin();
  // The open round's partial contributions on this shard's keys are lost.
  for (std::size_t k = shard; k < keys_.size(); k += shards_.size()) {
    KeyState& state = keys_[k];
    state.arrived = 0;
    std::fill(state.received.begin(), state.received.end(), 0);
  }
  if (auditor_ != nullptr) auditor_->on_ps_crash(shard, sim_.now());
}

std::vector<std::size_t> Server::recover() {
  PROPHET_CHECK_MSG(crashed(), "PS recover without a crash");
  std::vector<std::size_t> versions;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].crashed) versions = recover_shard(s);
  }
  return versions;
}

std::vector<std::size_t> Server::recover_shard(std::size_t shard) {
  PROPHET_CHECK(shard < shards_.size());
  ShardState& ps = shards_[shard];
  PROPHET_CHECK_MSG(ps.crashed, "PS shard recover without a crash");
  PROPHET_CHECK_MSG(failover_enabled_,
                    "PS recover needs enable_failover (a checkpoint to restore)");
  ps.crashed = false;
  // Snapshot instant: the last checkpoint boundary at or before the crash.
  const std::int64_t period_ns = failover_period_.count_nanos();
  const std::int64_t crash_ns = (ps.crash_time - TimePoint::origin()).count_nanos();
  const TimePoint snapshot_at =
      TimePoint::origin() + Duration::nanos((crash_ns / period_ns) * period_ns);
  // Rounds completed after the snapshot are lost; truncate them off this
  // shard's log (entries are chronological) and rebuild its keys' versions.
  std::size_t kept = 0;
  while (kept < ps.round_log.size() && ps.round_log[kept].at <= snapshot_at) ++kept;
  for (std::size_t k = shard; k < keys_.size(); k += shards_.size()) {
    keys_[k].versions = 0;
  }
  for (std::size_t i = 0; i < kept; ++i) ++keys_[ps.round_log[i].key].versions;
  ps.round_log.resize(kept);
  // Full-length vector: restored entries for this shard's keys, live
  // versions elsewhere — whole-model context for workers and the auditor.
  std::vector<std::size_t> versions(keys_.size(), 0);
  for (std::size_t k = 0; k < keys_.size(); ++k) versions[k] = keys_[k].versions;
  if (auditor_ != nullptr) auditor_->on_rollback(shard, versions, sim_.now());
  return versions;
}

bool Server::crashed() const {
  return std::any_of(shards_.begin(), shards_.end(),
                     [](const ShardState& s) { return s.crashed; });
}

bool Server::shard_crashed(std::size_t shard) const {
  PROPHET_CHECK(shard < shards_.size());
  return shards_[shard].crashed;
}

std::vector<std::size_t> Server::checkpoint_versions() const {
  PROPHET_CHECK_MSG(failover_enabled_,
                    "checkpoint_versions needs enable_failover");
  const std::int64_t period_ns = failover_period_.count_nanos();
  const std::int64_t now_ns = (sim_.now() - TimePoint::origin()).count_nanos();
  const TimePoint snapshot_at =
      TimePoint::origin() + Duration::nanos((now_ns / period_ns) * period_ns);
  std::vector<std::size_t> versions(keys_.size(), 0);
  for (const ShardState& ps : shards_) {
    for (const RoundEntry& entry : ps.round_log) {
      if (entry.at <= snapshot_at) ++versions[entry.key];
    }
  }
  return versions;
}

void Server::on_worker_crash(std::size_t worker) { discard_open_pushes(worker); }

void Server::discard_open_pushes(std::size_t worker) {
  PROPHET_CHECK(worker < num_workers_);
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    KeyState& state = keys_[k];
    std::int64_t& received = state.received[worker];
    if (received > 0 && received < state.size.count()) {
      // The in-flight push state died with the worker (or was aborted by a
      // failover halt); its replayed iteration re-sends the whole key. Full
      // contributions stand.
      if (auditor_ != nullptr) {
        auditor_->on_push_discarded(worker, k, Bytes::of(received), sim_.now());
      }
      received = 0;
    }
  }
}

void Server::set_cpu_factor(double factor) {
  for (std::size_t s = 0; s < shards_.size(); ++s) set_shard_cpu_factor(s, factor);
}

void Server::set_shard_cpu_factor(std::size_t shard, double factor) {
  PROPHET_CHECK(shard < shards_.size());
  PROPHET_CHECK_MSG(factor > 0.0, "PS cpu factor must be positive");
  shards_[shard].cpu_factor = factor;
}

void Server::schedule_update(std::size_t shard, Duration cost,
                             std::function<void()> done) {
  ShardState& ps = shards_[shard];
  if (ps.cpu_factor != 1.0) cost = cost * ps.cpu_factor;
  if (!serialize_cpu_) {
    sim_.schedule_after(cost, std::move(done));
    return;
  }
  const TimePoint start = std::max(sim_.now(), ps.cpu_free);
  ps.cpu_free = start + cost;
  sim_.schedule_at(ps.cpu_free, std::move(done));
}

std::size_t Server::version(std::size_t key) const {
  PROPHET_CHECK(key < keys_.size());
  return keys_[key].versions;
}

}  // namespace prophet::ps
