#include "net/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace prophet::net {

namespace {

// Splits on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in{s};
  while (std::getline(in, field, sep)) out.push_back(field);
  if (!s.empty() && s.back() == sep) out.emplace_back();
  return out;
}

bool parse_double(const std::string& s, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(s, &pos);
    // "inf" and "nan" parse, but no spec field has a meaning for them.
    return pos == s.size() && std::isfinite(*out);
  } catch (...) {
    return false;
  }
}

// A time in seconds: a finite number the simulator's int64-nanosecond clock
// can hold (about +-292 years).
bool parse_seconds(const std::string& s, double* out) {
  return parse_double(s, out) && std::abs(*out) < Duration::max().to_seconds();
}

bool parse_index(const std::string& s, std::size_t* out) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size() || v < 0) return false;
    *out = static_cast<std::size_t>(v);
    return true;
  } catch (...) {
    return false;
  }
}

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

const char* DynamicsEvent::type_name(Type t) {
  switch (t) {
    case Type::kBandwidthScale: return "bandwidth_scale";
    case Type::kBandwidthSet: return "bandwidth_set";
    case Type::kOutageStart: return "outage_start";
    case Type::kOutageEnd: return "outage_end";
    case Type::kComputeScale: return "compute_scale";
    case Type::kPsComputeScale: return "ps_compute_scale";
    case Type::kWorkerCrash: return "worker_crash";
    case Type::kWorkerRecover: return "worker_recover";
    case Type::kPsCrash: return "ps_crash";
    case Type::kPsRecover: return "ps_recover";
    case Type::kLossRate: return "loss_rate";
  }
  return "?";
}

namespace {

DynamicsEvent event_at(Duration at, DynamicsEvent::Type type) {
  DynamicsEvent ev;
  ev.at = at;
  ev.type = type;
  return ev;
}

}  // namespace

DynamicsPlan& DynamicsPlan::bandwidth_scale(Duration at,
                                            std::optional<std::size_t> worker,
                                            double factor) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kBandwidthScale);
  ev.worker = worker;
  ev.factor = factor;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::bandwidth_set(Duration at,
                                          std::optional<std::size_t> worker,
                                          Bandwidth bw) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kBandwidthSet);
  ev.worker = worker;
  ev.bandwidth = bw;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::ps_bandwidth_scale(Duration at, double factor) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kBandwidthScale);
  ev.target_ps = true;
  ev.factor = factor;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::link_bandwidth_scale(Duration at, std::string link,
                                                 double factor) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kBandwidthScale);
  ev.link = std::move(link);
  ev.factor = factor;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::link_bandwidth_set(Duration at, std::string link,
                                               Bandwidth bw) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kBandwidthSet);
  ev.link = std::move(link);
  ev.bandwidth = bw;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::link_outage(Duration at, Duration duration,
                                        std::string link) {
  PROPHET_CHECK_MSG(duration > Duration::zero(), "outage duration must be positive");
  DynamicsEvent start = event_at(at, DynamicsEvent::Type::kOutageStart);
  start.link = link;
  events.push_back(start);
  DynamicsEvent end = event_at(at + duration, DynamicsEvent::Type::kOutageEnd);
  end.link = std::move(link);
  events.push_back(end);
  return *this;
}

DynamicsPlan& DynamicsPlan::outage(Duration at, Duration duration,
                                   std::optional<std::size_t> worker) {
  PROPHET_CHECK_MSG(duration > Duration::zero(), "outage duration must be positive");
  DynamicsEvent start = event_at(at, DynamicsEvent::Type::kOutageStart);
  start.worker = worker;
  events.push_back(start);
  DynamicsEvent end = event_at(at + duration, DynamicsEvent::Type::kOutageEnd);
  end.worker = worker;
  events.push_back(end);
  return *this;
}

DynamicsPlan& DynamicsPlan::ps_outage(Duration at, Duration duration) {
  PROPHET_CHECK_MSG(duration > Duration::zero(), "outage duration must be positive");
  DynamicsEvent start = event_at(at, DynamicsEvent::Type::kOutageStart);
  start.target_ps = true;
  events.push_back(start);
  DynamicsEvent end = event_at(at + duration, DynamicsEvent::Type::kOutageEnd);
  end.target_ps = true;
  events.push_back(end);
  return *this;
}

DynamicsPlan& DynamicsPlan::straggler(Duration at, std::size_t worker, double factor) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kComputeScale);
  ev.worker = worker;
  ev.factor = factor;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::ps_degrade(Duration at, double factor) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kPsComputeScale);
  ev.factor = factor;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::worker_crash(Duration at, Duration downtime,
                                         std::size_t worker) {
  PROPHET_CHECK_MSG(downtime > Duration::zero(),
                    "worker crash downtime must be positive");
  DynamicsEvent crash = event_at(at, DynamicsEvent::Type::kWorkerCrash);
  crash.worker = worker;
  events.push_back(crash);
  DynamicsEvent recover =
      event_at(at + downtime, DynamicsEvent::Type::kWorkerRecover);
  recover.worker = worker;
  events.push_back(recover);
  return *this;
}

DynamicsPlan& DynamicsPlan::ps_crash(Duration at, Duration failover) {
  PROPHET_CHECK_MSG(failover > Duration::zero(),
                    "ps crash failover delay must be positive");
  DynamicsEvent crash = event_at(at, DynamicsEvent::Type::kPsCrash);
  crash.target_ps = true;
  events.push_back(crash);
  DynamicsEvent recover = event_at(at + failover, DynamicsEvent::Type::kPsRecover);
  recover.target_ps = true;
  events.push_back(recover);
  return *this;
}

DynamicsPlan& DynamicsPlan::ps_shard_crash(Duration at, Duration failover,
                                           std::size_t shard) {
  PROPHET_CHECK_MSG(failover > Duration::zero(),
                    "ps shard crash failover delay must be positive");
  DynamicsEvent crash = event_at(at, DynamicsEvent::Type::kPsCrash);
  crash.target_ps = true;
  crash.ps_shard = shard;
  events.push_back(crash);
  DynamicsEvent recover = event_at(at + failover, DynamicsEvent::Type::kPsRecover);
  recover.target_ps = true;
  recover.ps_shard = shard;
  events.push_back(recover);
  return *this;
}

DynamicsPlan& DynamicsPlan::ps_shard_degrade(Duration at, double factor,
                                             std::size_t shard) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kPsComputeScale);
  ev.factor = factor;
  ev.ps_shard = shard;
  events.push_back(ev);
  return *this;
}

DynamicsPlan& DynamicsPlan::loss_rate(Duration at, double rate) {
  DynamicsEvent ev = event_at(at, DynamicsEvent::Type::kLossRate);
  ev.factor = rate;
  events.push_back(ev);
  return *this;
}

DynamicsPlan DynamicsPlan::fluctuation(std::uint64_t seed, double amplitude,
                                       Duration period, Duration horizon,
                                       std::size_t num_workers) {
  PROPHET_CHECK_MSG(amplitude >= 0.0 && amplitude < 1.0,
                    "fluctuation amplitude must be in [0, 1)");
  PROPHET_CHECK_MSG(period > Duration::zero(), "fluctuation period must be positive");
  DynamicsPlan plan;
  if (amplitude == 0.0) return plan;
  Rng rng{seed};
  for (Duration t = period; t <= horizon; t += period) {
    for (std::size_t w = 0; w < num_workers; ++w) {
      // Congestion dips: the configured rate is the NIC line rate, an upper
      // bound — cross-traffic can only take bandwidth away, never add it.
      const double factor = 1.0 - amplitude * rng.next_double();
      plan.bandwidth_scale(t, w, std::max(factor, 0.05));
    }
  }
  return plan;
}

std::optional<DynamicsPlan> DynamicsPlan::from_trace_csv(const std::string& path,
                                                         std::string* error) {
  std::ifstream in{path};
  if (!in.good()) {
    set_error(error, "cannot open dynamics trace '" + path + "'");
    return std::nullopt;
  }
  DynamicsPlan plan;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line.rfind("time_s", 0) == 0) continue;
    const auto fields = split(line, ',');
    const std::string where = path + ":" + std::to_string(lineno);
    if (fields.size() != 4) {
      set_error(error, where + ": want 4 fields `time_s,event,target,value`");
      return std::nullopt;
    }
    double time_s = 0.0;
    if (!parse_seconds(fields[0], &time_s) || time_s < 0.0) {
      set_error(error, where + ": bad time '" + fields[0] + "'");
      return std::nullopt;
    }
    DynamicsEvent ev;
    ev.at = Duration::from_seconds(time_s);
    if (fields[2] == "ps") {
      ev.target_ps = true;
    } else if (fields[2].rfind("shard:", 0) == 0) {
      std::size_t shard = 0;
      if (!parse_index(fields[2].substr(6), &shard)) {
        set_error(error, where + ": bad PS shard in target '" + fields[2] + "'");
        return std::nullopt;
      }
      ev.target_ps = true;
      ev.ps_shard = shard;
    } else if (fields[2].rfind("link:", 0) == 0) {
      ev.link = fields[2].substr(5);
      if (ev.link.empty()) {
        set_error(error, where + ": empty link name in target '" + fields[2] + "'");
        return std::nullopt;
      }
    } else if (fields[2] != "*") {
      std::size_t w = 0;
      if (!parse_index(fields[2], &w)) {
        set_error(error,
                  where + ": bad target '" + fields[2] + "' (index|*|ps|shard:K)");
        return std::nullopt;
      }
      ev.worker = w;
    }
    double value = 0.0;
    const bool has_value = parse_double(fields[3], &value);
    const std::string& kind = fields[1];
    if (kind == "bandwidth_scale") {
      ev.type = DynamicsEvent::Type::kBandwidthScale;
      ev.factor = value;
    } else if (kind == "bandwidth_gbps") {
      ev.type = DynamicsEvent::Type::kBandwidthSet;
      ev.bandwidth = Bandwidth::gbps(value);
    } else if (kind == "outage_start") {
      ev.type = DynamicsEvent::Type::kOutageStart;
    } else if (kind == "outage_end") {
      ev.type = DynamicsEvent::Type::kOutageEnd;
    } else if (kind == "compute_scale") {
      ev.type = DynamicsEvent::Type::kComputeScale;
    } else if (kind == "ps_compute_scale") {
      ev.type = DynamicsEvent::Type::kPsComputeScale;
    } else if (kind == "worker_crash") {
      ev.type = DynamicsEvent::Type::kWorkerCrash;
    } else if (kind == "worker_recover") {
      ev.type = DynamicsEvent::Type::kWorkerRecover;
    } else if (kind == "ps_crash") {
      ev.type = DynamicsEvent::Type::kPsCrash;
    } else if (kind == "ps_recover") {
      ev.type = DynamicsEvent::Type::kPsRecover;
    } else if (kind == "loss_rate") {
      ev.type = DynamicsEvent::Type::kLossRate;
    } else {
      set_error(error, where + ": unknown event '" + kind + "'");
      return std::nullopt;
    }
    if (kind == "compute_scale" || kind == "ps_compute_scale" ||
        kind == "loss_rate") {
      ev.factor = value;
    }
    const bool needs_value = kind != "outage_start" && kind != "outage_end" &&
                             kind != "worker_crash" && kind != "worker_recover" &&
                             kind != "ps_crash" && kind != "ps_recover";
    if (needs_value && !has_value) {
      set_error(error, where + ": bad value '" + fields[3] + "'");
      return std::nullopt;
    }
    plan.events.push_back(ev);
  }
  plan.sort();
  return plan;
}

std::optional<DynamicsPlan> DynamicsPlan::from_spec(const std::string& spec,
                                                    std::uint64_t seed,
                                                    Duration horizon,
                                                    std::size_t num_workers,
                                                    std::string* error) {
  if (spec.empty() || spec == "none") return DynamicsPlan{};
  const auto fields = split(spec, ':');
  if (fields[0] == "fluctuate") {
    double amplitude = 0.0;
    double period_s = 2.0;
    if (fields.size() < 2 || fields.size() > 3 ||
        !parse_double(fields[1], &amplitude) ||
        (fields.size() == 3 && !parse_seconds(fields[2], &period_s))) {
      set_error(error, "--dynamics fluctuate wants fluctuate:AMP[:PERIOD_S]");
      return std::nullopt;
    }
    if (amplitude < 0.0 || amplitude >= 1.0 || period_s <= 0.0) {
      set_error(error, "--dynamics fluctuate: AMP in [0,1), PERIOD_S > 0");
      return std::nullopt;
    }
    return fluctuation(seed, amplitude, Duration::from_seconds(period_s), horizon,
                       num_workers);
  }
  if (fields[0] == "step") {
    double at_s = 0.0;
    double factor = 0.0;
    std::size_t worker = 0;
    const bool has_worker = fields.size() == 4;
    if (fields.size() < 3 || fields.size() > 4 || !parse_seconds(fields[1], &at_s) ||
        !parse_double(fields[2], &factor) ||
        (has_worker && !parse_index(fields[3], &worker))) {
      set_error(error, "--dynamics step wants step:T_S:FACTOR[:WORKER]");
      return std::nullopt;
    }
    DynamicsPlan plan;
    plan.bandwidth_scale(Duration::from_seconds(at_s),
                         has_worker ? std::optional<std::size_t>{worker}
                                    : std::nullopt,
                         factor);
    return plan;
  }
  if (fields[0] == "trace") {
    if (fields.size() != 2) {
      set_error(error, "--dynamics trace wants trace:PATH");
      return std::nullopt;
    }
    return from_trace_csv(fields[1], error);
  }
  set_error(error, "unknown --dynamics spec '" + spec +
                       "' (none|fluctuate:...|step:...|trace:PATH)");
  return std::nullopt;
}

bool DynamicsPlan::add_outage_spec(const std::string& spec, std::string* error) {
  const auto fields = split(spec, ':');
  double at_s = 0.0;
  double dur_s = 0.0;
  std::size_t worker = 0;
  const bool has_worker = fields.size() == 3;
  if (fields.size() < 2 || fields.size() > 3 || !parse_seconds(fields[0], &at_s) ||
      !parse_seconds(fields[1], &dur_s) ||
      (has_worker && !parse_index(fields[2], &worker)) || dur_s <= 0.0) {
    set_error(error, "--outage wants T_S:DUR_S[:WORKER]");
    return false;
  }
  outage(Duration::from_seconds(at_s), Duration::from_seconds(dur_s),
         has_worker ? std::optional<std::size_t>{worker} : std::nullopt);
  return true;
}

bool DynamicsPlan::add_straggler_spec(const std::string& spec, std::string* error) {
  const auto fields = split(spec, ':');
  std::size_t worker = 0;
  double factor = 0.0;
  double at_s = 0.0;
  if (fields.size() < 2 || fields.size() > 3 || !parse_index(fields[0], &worker) ||
      !parse_double(fields[1], &factor) ||
      (fields.size() == 3 && !parse_seconds(fields[2], &at_s))) {
    set_error(error, "--straggler wants WORKER:FACTOR[:T_S]");
    return false;
  }
  straggler(Duration::from_seconds(at_s), worker, factor);
  return true;
}

bool DynamicsPlan::add_ps_degrade_spec(const std::string& spec, std::string* error) {
  const auto fields = split(spec, ':');
  double factor = 0.0;
  double at_s = 0.0;
  if (fields.empty() || fields.size() > 2 || !parse_double(fields[0], &factor) ||
      (fields.size() == 2 && !parse_seconds(fields[1], &at_s))) {
    set_error(error, "--ps-degrade wants FACTOR[:T_S]");
    return false;
  }
  ps_degrade(Duration::from_seconds(at_s), factor);
  return true;
}

bool DynamicsPlan::add_worker_crash_spec(const std::string& spec,
                                         std::string* error) {
  const auto fields = split(spec, ':');
  double at_s = 0.0;
  double dur_s = 0.0;
  std::size_t worker = 0;
  if (fields.size() != 3 || !parse_seconds(fields[0], &at_s) ||
      !parse_seconds(fields[1], &dur_s) || !parse_index(fields[2], &worker) ||
      at_s < 0.0 || dur_s <= 0.0) {
    set_error(error, "--worker-crash wants T_S:DUR_S:WORKER");
    return false;
  }
  worker_crash(Duration::from_seconds(at_s), Duration::from_seconds(dur_s), worker);
  return true;
}

bool DynamicsPlan::add_ps_crash_spec(const std::string& spec, std::string* error) {
  const auto fields = split(spec, ':');
  double at_s = 0.0;
  double dur_s = 0.0;
  std::size_t shard = 0;
  const bool has_shard = fields.size() == 4;
  if ((fields.size() != 2 && fields.size() != 4) ||
      !parse_seconds(fields[0], &at_s) || !parse_seconds(fields[1], &dur_s) ||
      (has_shard && (fields[2] != "shard" || !parse_index(fields[3], &shard))) ||
      at_s < 0.0 || dur_s <= 0.0) {
    set_error(error, "--ps-crash wants T_S:DUR_S[:shard:K]");
    return false;
  }
  if (has_shard) {
    ps_shard_crash(Duration::from_seconds(at_s), Duration::from_seconds(dur_s),
                   shard);
  } else {
    ps_crash(Duration::from_seconds(at_s), Duration::from_seconds(dur_s));
  }
  return true;
}

bool DynamicsPlan::add_loss_spec(const std::string& spec, std::string* error) {
  const auto fields = split(spec, ':');
  double rate = 0.0;
  double at_s = 0.0;
  if (fields.empty() || fields.size() > 2 || !parse_double(fields[0], &rate) ||
      (fields.size() == 2 && !parse_seconds(fields[1], &at_s)) || rate < 0.0 ||
      rate >= 1.0 || at_s < 0.0) {
    set_error(error, "--loss wants RATE[:T_S] with RATE in [0, 1)");
    return false;
  }
  loss_rate(Duration::from_seconds(at_s), rate);
  return true;
}

void DynamicsPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const DynamicsEvent& a, const DynamicsEvent& b) {
                     return a.at < b.at;
                   });
}

void DynamicsPlan::validate(std::size_t num_workers, std::size_t ps_shards) const {
  using Type = DynamicsEvent::Type;
  // Outage bookkeeping per exact target (worker index, all-workers, or PS).
  std::map<std::string, bool> link_down;
  // Crash bookkeeping per node ("ps", "ps:K" for one PS shard, or a worker
  // index).
  std::map<std::string, bool> node_down;
  std::size_t ps_shards_down = 0;
  Duration prev = Duration::zero();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const DynamicsEvent& ev = events[i];
    PROPHET_CHECK_MSG(ev.at >= Duration::zero(),
                      "dynamics event time must be non-negative");
    PROPHET_CHECK_MSG(ev.at >= prev,
                      "dynamics events must be time-sorted (call DynamicsPlan::sort())");
    prev = ev.at;
    if (!ev.target_ps && ev.worker.has_value()) {
      PROPHET_CHECK_MSG(*ev.worker < num_workers,
                        "dynamics event targets a worker index >= num_workers");
    }
    if (ev.ps_shard.has_value()) {
      PROPHET_CHECK_MSG(ev.target_ps || ev.type == Type::kPsComputeScale,
                        "dynamics ps_shard set on an event that does not "
                        "target the PS tier");
      PROPHET_CHECK_MSG(*ev.ps_shard < ps_shards,
                        "dynamics event targets a PS shard index >= ps_shards");
    }
    if (ev.targets_link()) {
      using T = DynamicsEvent::Type;
      PROPHET_CHECK_MSG(ev.type == T::kBandwidthScale || ev.type == T::kBandwidthSet ||
                            ev.type == T::kOutageStart || ev.type == T::kOutageEnd,
                        "dynamics link targets apply only to bandwidth and "
                        "outage events");
    }
    switch (ev.type) {
      case Type::kBandwidthScale:
      case Type::kComputeScale:
      case Type::kPsComputeScale:
        PROPHET_CHECK_MSG(ev.factor > 0.0,
                          "dynamics scale factor must be positive");
        break;
      case Type::kBandwidthSet:
        PROPHET_CHECK_MSG(!ev.bandwidth.is_zero(),
                          "dynamics bandwidth_set needs a positive bandwidth");
        break;
      case Type::kOutageStart:
      case Type::kOutageEnd: {
        const std::string key =
            ev.targets_link()
                ? "link:" + ev.link
                : (ev.target_ps
                       ? "ps"
                       : (ev.worker.has_value() ? std::to_string(*ev.worker) : "*"));
        bool& down = link_down[key];
        if (ev.type == Type::kOutageStart) {
          PROPHET_CHECK_MSG(!down, "dynamics outage_start while the link is already down");
          down = true;
        } else {
          PROPHET_CHECK_MSG(down, "dynamics outage_end without a matching outage_start");
          down = false;
        }
        break;
      }
      case Type::kWorkerCrash:
      case Type::kWorkerRecover: {
        PROPHET_CHECK_MSG(!ev.target_ps && ev.worker.has_value(),
                          "dynamics worker_crash/worker_recover needs a concrete "
                          "worker index (crashing every worker at once is not a "
                          "recoverable BSP state)");
        bool& down = node_down[std::to_string(*ev.worker)];
        if (ev.type == Type::kWorkerCrash) {
          PROPHET_CHECK_MSG(!down,
                            "dynamics worker_crash while the worker is already down");
          down = true;
        } else {
          PROPHET_CHECK_MSG(down,
                            "dynamics worker_recover without a matching worker_crash");
          down = false;
        }
        break;
      }
      case Type::kPsCrash:
      case Type::kPsRecover: {
        const std::string key =
            ev.ps_shard.has_value() ? "ps:" + std::to_string(*ev.ps_shard) : "ps";
        bool& down = node_down[key];
        if (ev.type == Type::kPsCrash) {
          PROPHET_CHECK_MSG(!down, "dynamics ps_crash while the PS is already down");
          // A whole-tier crash during a shard failover (or vice versa) has no
          // well-defined rollback arithmetic: the mid-failover shard would be
          // rolled back twice from inconsistent snapshots.
          PROPHET_CHECK_MSG(!node_down["ps"],
                            "dynamics ps_crash on a shard while the whole PS "
                            "tier is already down");
          PROPHET_CHECK_MSG(ev.ps_shard.has_value() || ps_shards_down == 0,
                            "dynamics whole-PS ps_crash while a PS shard is "
                            "already mid-failover");
          down = true;
          if (ev.ps_shard.has_value()) ++ps_shards_down;
        } else {
          PROPHET_CHECK_MSG(down, "dynamics ps_recover without a matching ps_crash");
          down = false;
          if (ev.ps_shard.has_value()) --ps_shards_down;
        }
        break;
      }
      case Type::kLossRate:
        PROPHET_CHECK_MSG(ev.factor >= 0.0 && ev.factor < 1.0,
                          "dynamics loss_rate must be in [0, 1)");
        break;
    }
  }
  for (const auto& [key, down] : link_down) {
    PROPHET_CHECK_MSG(!down, "dynamics outage_start without a matching outage_end");
  }
  for (const auto& [key, down] : node_down) {
    PROPHET_CHECK_MSG(!down, "dynamics crash without a matching recover");
  }
}

bool DynamicsPlan::has_ps_crash() const {
  return std::any_of(events.begin(), events.end(), [](const DynamicsEvent& ev) {
    return ev.type == DynamicsEvent::Type::kPsCrash;
  });
}

bool DynamicsPlan::has_worker_crash() const {
  return std::any_of(events.begin(), events.end(), [](const DynamicsEvent& ev) {
    return ev.type == DynamicsEvent::Type::kWorkerCrash;
  });
}

bool DynamicsPlan::has_loss() const {
  return std::any_of(events.begin(), events.end(), [](const DynamicsEvent& ev) {
    return ev.type == DynamicsEvent::Type::kLossRate && ev.factor > 0.0;
  });
}

}  // namespace prophet::net
