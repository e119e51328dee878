// Golden scenarios shared by tests/test_engine_perf_invariants.cpp, which
// pins their outputs, and tools/golden_capture.cpp, which prints them. Both
// build from the same tree, so a re-capture measures exactly the engine and
// the scenarios the tests check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "core/block_planner.hpp"
#include "core/local_search.hpp"
#include "core/perf_model.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/stepwise.hpp"
#include "net/flow_network.hpp"
#include "ps/cluster.hpp"
#include "sim/simulator.hpp"

namespace prophet::golden {

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

inline std::uint64_t hash_schedule(const core::Schedule& s) {
  std::uint64_t h = kFnvSeed;
  for (const auto& t : s.tasks) {
    h = fnv1a(h, static_cast<std::uint64_t>(t.start.count_nanos()));
    h = fnv1a(h, t.grads.size());
    for (std::size_t g : t.grads) h = fnv1a(h, g);
  }
  return h;
}

inline std::uint64_t hash_breakdown(const core::WaitTimeBreakdown& b) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a(h, static_cast<std::uint64_t>(b.t_wait.count_nanos()));
  h = fnv1a(h, static_cast<std::uint64_t>(b.span.count_nanos()));
  for (auto d : b.update_done) h = fnv1a(h, static_cast<std::uint64_t>(d.count_nanos()));
  for (auto d : b.forward_done) h = fnv1a(h, static_cast<std::uint64_t>(d.count_nanos()));
  return h;
}

// --- planner / local-search scenarios ---------------------------------------

inline core::GradientProfile model_profile(const dnn::ModelSpec& model) {
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
  const auto timing = iteration.nominal();
  core::GradientProfile profile;
  profile.ready = timing.ready_offset;
  for (const auto& tensor : iteration.model().tensors()) {
    profile.sizes.push_back(tensor.bytes);
  }
  profile.intervals = dnn::transfer_intervals(profile.ready);
  profile.iterations_profiled = 1;
  return profile;
}

inline core::PerfModel model_perf(const dnn::ModelSpec& model) {
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 64};
  return core::PerfModel{model_profile(model), iteration.nominal().fwd,
                         Bandwidth::gbps(3), net::TcpCostModel{}};
}

inline core::Schedule chunked_schedule(std::size_t n, std::size_t chunk) {
  core::Schedule initial;
  for (std::size_t g = 0; g < n; g += chunk) {
    core::ScheduledTask task;
    for (std::size_t k = g; k < std::min(n, g + chunk); ++k) task.grads.push_back(k);
    initial.tasks.push_back(std::move(task));
  }
  return initial;
}

// Random profiles through the refine path, so odd ready/size patterns (ties,
// zero gaps) are pinned too.
inline core::LocalSearchResult refine_random(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<Duration> ready(n);
  std::vector<Bytes> sizes(n);
  Duration clock{};
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = n - 1 - step;
    if (step == 0 || rng.bernoulli(0.6)) {
      clock += Duration::millis(rng.uniform_int(2, 25));
    }
    ready[idx] = clock;
    sizes[idx] = Bytes::kib(rng.uniform_int(16, 4096));
  }
  core::GradientProfile profile;
  profile.ready = ready;
  profile.sizes = sizes;
  profile.intervals = dnn::transfer_intervals(profile.ready);
  profile.iterations_profiled = 1;
  const std::vector<Duration> fwd(n, Duration::millis(2));
  const core::PerfModel pm{profile, fwd, Bandwidth::gbps(1), net::TcpCostModel{}};
  return core::LocalSearchPlanner{32}.refine(chunked_schedule(n, 1), pm);
}

// --- simulator scenario -----------------------------------------------------

struct SimOutcome {
  std::uint64_t events = 0;
  std::uint64_t work = 0;
  std::int64_t end_ns = 0;
};

inline SimOutcome run_mixed_cancel_and_periodic() {
  sim::Simulator sim;
  Rng rng{12345};
  std::vector<sim::EventHandle> handles;
  std::uint64_t work = 0;
  for (int i = 0; i < 5000; ++i) {
    auto h = sim.schedule_after(Duration::micros(rng.uniform_int(0, 100000)),
                                [&work] { ++work; });
    if (rng.bernoulli(0.25)) handles.push_back(h);
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  // A self-re-arming tick every 700 us until the work count passes 5500.
  std::function<void()> tick = [&] {
    ++work;
    if (work <= 5500) sim.schedule_after(Duration::micros(700), tick);
  };
  sim.schedule_after(Duration::micros(700), tick);
  sim.schedule_after(Duration::millis(3), [&] {
    sim.schedule_after(Duration::millis(1), [&work] { work += 10; });
  });
  sim.run();
  return {sim.events_fired(), work, sim.now().count_nanos()};
}

// --- FlowNetwork scenarios --------------------------------------------------

struct FlowOutcome {
  int done = 0;
  std::uint64_t events = 0;
  std::int64_t end_ns = 0;
  std::int64_t ps_rx_bytes = 0;
  std::int64_t ps_rx_busy_ns = 0;
  // FlowIds and completion instants, in completion order.
  std::uint64_t hash = 0;
};

// Four workers push 1..4 MiB and pull 512 KiB per round through a 10 Gbps PS
// for six rounds, under a PS-ingress capacity cut and a worker outage. Below
// the rate-group threshold: this is the eager slow path.
inline FlowOutcome run_churn_with_dynamics(net::RebalanceMode mode) {
  sim::Simulator sim;
  net::FlowNetwork net{sim, net::TcpCostModel{}, mode};
  const auto ps = net.add_node("ps", Bandwidth::gbps(10), Bandwidth::gbps(10));
  std::vector<net::NodeId> workers;
  for (int i = 0; i < 4; ++i)
    workers.push_back(net.add_node("w", Bandwidth::gbps(5), Bandwidth::gbps(5)));
  FlowOutcome out;
  out.hash = kFnvSeed;
  const auto on_done = [&](net::FlowId id) {
    ++out.done;
    out.hash = fnv1a(out.hash, id);
    out.hash = fnv1a(out.hash, static_cast<std::uint64_t>(sim.now().count_nanos()));
  };
  for (int round = 0; round < 6; ++round) {
    for (std::size_t w = 0; w < workers.size(); ++w) {
      net.start_flow(workers[w], ps, Bytes::mib(static_cast<std::int64_t>(1 + w)),
                     on_done);
      net.start_flow(ps, workers[w], Bytes::kib(512), on_done);
    }
    sim.schedule_after(Duration::millis(1), [&] {
      net.set_capacity(ps, net::Direction::kRx, Bandwidth::gbps(8));
    });
    sim.schedule_after(Duration::millis(2), [&] { net.set_link_up(workers[1], false); });
    sim.schedule_after(Duration::millis(4), [&] { net.set_link_up(workers[1], true); });
    sim.run();
    net.set_capacity(ps, net::Direction::kRx, Bandwidth::gbps(10));
  }
  out.events = sim.events_fired();
  out.end_ns = sim.now().count_nanos();
  out.ps_rx_bytes = net.total_bytes(ps, net::Direction::kRx);
  out.ps_rx_busy_ns = net.busy_time(ps, net::Direction::kRx).count_nanos();
  return out;
}

struct IncastOutcome {
  int done = 0;
  std::uint64_t events = 0;
  std::int64_t end_ns = 0;
  // Worker index and instant of every completion, plus the cancelled
  // flow's unsent bytes.
  std::uint64_t completion_hash = 0;
  // link_total_bytes of every link, in LinkId order.
  std::uint64_t link_bytes_hash = 0;
  std::int64_t ps_rx_bytes = 0;
  // Every bin of the PS-ingress and worker-egress trackers.
  std::uint64_t bins_hash = 0;
  // Each tracker's bin sum equals its link's total.
  bool tracker_sums_match = true;
  net::RebalanceStats stats;
};

// The grouped path: 32 workers at 1 Gbps push odd-sized flows into a 4 Gbps
// PS NIC at staggered starts, with trackers on every access link. The PS
// ingress is the common bottleneck, so kIncremental forms a rate group and
// admits, completes, re-rates (an anchor capacity cut and restore) and
// aborts (one cancelled member) on the O(log n) fast path.
inline IncastOutcome run_grouped_incast(net::RebalanceMode mode) {
  constexpr int kWorkers = 32;
  sim::Simulator sim;
  net::FlowNetwork net{sim, net::TcpCostModel{}, mode};
  const Duration bin = Duration::micros(500);
  const Duration horizon = Duration::millis(200);
  const auto ps = net.add_node("ps", Bandwidth::gbps(4), Bandwidth::gbps(4));
  BinnedSeries ps_rx{bin, horizon};
  net.attach_tracker(ps, net::Direction::kRx, &ps_rx);
  std::vector<net::NodeId> workers;
  std::vector<BinnedSeries> tx(kWorkers, BinnedSeries{bin, horizon});
  for (int i = 0; i < kWorkers; ++i) {
    workers.push_back(
        net.add_node("w" + std::to_string(i), Bandwidth::gbps(1), Bandwidth::gbps(1)));
    net.attach_tracker(workers.back(), net::Direction::kTx,
                       &tx[static_cast<std::size_t>(i)]);
  }
  IncastOutcome out;
  out.completion_hash = kFnvSeed;
  std::vector<net::FlowId> ids(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    const auto w = static_cast<std::size_t>(i);
    sim.schedule_after(Duration::micros(150 * i), [&, w] {
      ids[w] = net.start_flow(workers[w], ps,
                              Bytes::of(250'000 + 7'919 * static_cast<std::int64_t>(w)),
                              [&, w](net::FlowId) {
                                ++out.done;
                                out.completion_hash = fnv1a(out.completion_hash, w);
                                out.completion_hash = fnv1a(
                                    out.completion_hash,
                                    static_cast<std::uint64_t>(sim.now().count_nanos()));
                              });
    });
  }
  sim.schedule_after(Duration::millis(3), [&] {
    net.set_capacity(ps, net::Direction::kRx, Bandwidth::gbps(3));
  });
  sim.schedule_after(Duration::micros(6'100), [&] {
    const Bytes unsent = net.cancel_flow(ids[20]);
    out.completion_hash =
        fnv1a(out.completion_hash, static_cast<std::uint64_t>(unsent.count()));
  });
  sim.schedule_after(Duration::millis(9), [&] {
    net.set_capacity(ps, net::Direction::kRx, Bandwidth::gbps(4));
  });
  sim.run();

  out.events = sim.events_fired();
  out.end_ns = sim.now().count_nanos();
  out.ps_rx_bytes = net.total_bytes(ps, net::Direction::kRx);
  out.link_bytes_hash = kFnvSeed;
  for (net::LinkId l = 0; l < net.link_count(); ++l) {
    out.link_bytes_hash =
        fnv1a(out.link_bytes_hash, static_cast<std::uint64_t>(net.link_total_bytes(l)));
  }
  out.bins_hash = kFnvSeed;
  const auto fold = [&](const BinnedSeries& series, std::int64_t link_bytes) {
    double sum = 0.0;
    for (std::size_t b = 0; b < series.bin_count(); ++b) {
      sum += series.bin_amount(b);
      out.bins_hash =
          fnv1a(out.bins_hash, static_cast<std::uint64_t>(series.bin_amount(b)));
    }
    out.tracker_sums_match =
        out.tracker_sums_match && sum == static_cast<double>(link_bytes);
  };
  fold(ps_rx, out.ps_rx_bytes);
  for (int i = 0; i < kWorkers; ++i) {
    fold(tx[static_cast<std::size_t>(i)],
         net.total_bytes(workers[static_cast<std::size_t>(i)], net::Direction::kTx));
  }
  out.stats = net.rebalance_stats();
  return out;
}

// --- full-cluster scenario --------------------------------------------------

inline ps::ClusterConfig golden_cluster_config(const ps::StrategyConfig& strategy,
                                               net::RebalanceMode mode) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 3;
  cfg.batch = 64;
  cfg.iterations = 10;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = strategy;
  cfg.strategy.prophet_config.profile_iterations = 4;
  cfg.rate_rebalance = mode;
  return cfg;
}

}  // namespace prophet::golden
