// GPU busy/idle accounting for one worker: the instrument behind the paper's
// utilization plots (Figs. 2, 9, 13) and average-utilization claims.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/time_series.hpp"

namespace prophet::metrics {

class GpuTracker {
 public:
  // `bin` / `horizon` size the utilization-over-time series.
  GpuTracker(Duration bin, Duration horizon);

  void busy_from(TimePoint start);
  void idle_from(TimePoint end);
  [[nodiscard]] bool is_busy() const { return busy_since_.has_value(); }

  // Closes any open busy interval at `now` for final accounting.
  void finish(TimePoint now);

  [[nodiscard]] Duration total_busy() const { return total_busy_; }
  // Busy fraction over [from, to].
  [[nodiscard]] double utilization(TimePoint from, TimePoint to) const;
  // The utilization-over-time series and the raw busy intervals in
  // chronological order (trace export), moved out for a result that takes
  // ownership; the tracker holds neither afterwards.
  [[nodiscard]] BinnedSeries take_series() { return std::move(series_); }
  [[nodiscard]] std::vector<std::pair<TimePoint, TimePoint>> take_intervals() {
    return std::move(intervals_);
  }

 private:
  BinnedSeries series_;
  std::optional<TimePoint> busy_since_;
  Duration total_busy_{};
  // Busy time accumulated before `t`, sampled at interval edges; enables
  // utilization() over arbitrary windows.
  std::vector<std::pair<TimePoint, Duration>> checkpoints_;
  std::vector<std::pair<TimePoint, TimePoint>> intervals_;
};

}  // namespace prophet::metrics
