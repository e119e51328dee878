#include "net/monitor.hpp"

#include "common/check.hpp"

namespace prophet::net {

BandwidthMonitor::BandwidthMonitor(sim::Simulator& sim, FlowNetwork& network,
                                   NodeId node, Direction dir,
                                   BandwidthMonitorConfig config)
    : sim_{sim},
      network_{network},
      node_{node},
      dir_{dir},
      config_{config},
      ewma_{config.ewma_alpha} {
  PROPHET_CHECK(config_.sample_period > Duration::zero());
  schedule_tick();
}

// The queued tick captures `this`.
BandwidthMonitor::~BandwidthMonitor() { tick_.cancel(); }

void BandwidthMonitor::schedule_tick() {
  tick_ = sim_.schedule_after(config_.sample_period, [this] {
    if (stopped_) return;
    sample_now();
    schedule_tick();
  });
}

void BandwidthMonitor::sample_now() {
  const auto bytes = static_cast<double>(network_.total_bytes(node_, dir_));
  const Duration busy = network_.busy_time(node_, dir_);
  const double delta_bytes = bytes - last_bytes_;
  const Duration delta_busy = busy - last_busy_;
  last_bytes_ = bytes;
  last_busy_ = busy;
  ++samples_;
  if (delta_busy < config_.min_busy_time || delta_bytes <= 0.0) return;
  ewma_.add(delta_bytes / delta_busy.to_seconds());
}

Bandwidth BandwidthMonitor::estimate() const {
  if (ewma_.has_value()) return Bandwidth::bytes_per_sec(ewma_.value());
  return network_.capacity(node_, dir_);
}

}  // namespace prophet::net
