// Time-binned series used to reproduce the paper's over-time plots
// (GPU utilization in Figs. 2/9/13, network throughput in Figs. 2/10).
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"

namespace prophet {

// Accumulates weighted values into fixed-width time bins.
//
// The horizon fixes the logical bin_count(); storage grows only to the last
// bin written, so a series costs what the simulation records, not what the
// horizon allows. Bins never written read 0.
//
// Two usage modes, matching the two plot families in the paper:
//  * add_amount   — for throughput: bytes landing in a bin; report() divides
//                   by the bin width to yield a rate.
//  * add_interval — for utilization: a busy interval is spread across the
//                   bins it overlaps; report() divides by the bin width to
//                   yield a fraction in [0, 1].
class BinnedSeries {
 public:
  BinnedSeries(Duration bin_width, Duration horizon);

  void add_amount(TimePoint at, double amount);
  // Spreads `amount` uniformly over [begin, end) across the bins it overlaps
  // (used for bytes drained by a network flow at a constant rate).
  void add_amount_spread(TimePoint begin, TimePoint end, double amount);
  void add_interval(TimePoint begin, TimePoint end);

  [[nodiscard]] Duration bin_width() const { return bin_width_; }
  [[nodiscard]] std::size_t bin_count() const { return bin_count_; }
  [[nodiscard]] TimePoint bin_start(std::size_t i) const;
  // Raw accumulated amount in bin i.
  [[nodiscard]] double bin_amount(std::size_t i) const;
  // Amount divided by bin width in seconds (rate or utilization fraction).
  [[nodiscard]] double bin_rate(std::size_t i) const;

  // Mean of bin_rate over bins [first, last); used for the paper's average
  // utilization / throughput claims.
  [[nodiscard]] double mean_rate(std::size_t first, std::size_t last) const;
  [[nodiscard]] double mean_rate() const { return mean_rate(0, bin_count_); }

 private:
  // Storage for bins [0, idx], zero-filling any newly covered bins.
  double& bin_at(std::size_t idx);
  // End of the logical series: writes at or past it are dropped.
  [[nodiscard]] TimePoint horizon_end() const;

  Duration bin_width_;
  std::size_t bin_count_;
  // Bins [0, last written]; never longer than bin_count_.
  std::vector<double> bins_;
};

}  // namespace prophet
