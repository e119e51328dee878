#include "common/time_series.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prophet {

BinnedSeries::BinnedSeries(Duration bin_width, Duration horizon) : bin_width_{bin_width} {
  PROPHET_CHECK(bin_width > Duration::zero());
  PROPHET_CHECK(horizon > Duration::zero());
  bin_count_ = static_cast<std::size_t>(
      (horizon.count_nanos() + bin_width.count_nanos() - 1) / bin_width.count_nanos());
}

double& BinnedSeries::bin_at(std::size_t idx) {
  // resize() grows capacity geometrically, so appending bin by bin stays
  // amortized O(1).
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0.0);
  return bins_[idx];
}

TimePoint BinnedSeries::horizon_end() const {
  return TimePoint::origin() + bin_width_ * static_cast<std::int64_t>(bin_count_);
}

void BinnedSeries::add_amount(TimePoint at, double amount) {
  if (at < TimePoint::origin()) return;
  const auto idx = static_cast<std::size_t>(at.count_nanos() / bin_width_.count_nanos());
  if (idx < bin_count_) bin_at(idx) += amount;
}

void BinnedSeries::add_amount_spread(TimePoint begin, TimePoint end, double amount) {
  if (end <= begin) {
    add_amount(begin, amount);
    return;
  }
  const double rate = amount / (end - begin).to_seconds();
  auto b = std::max(begin, TimePoint::origin());
  const auto e = std::min(end, horizon_end());
  while (b < e) {
    const auto idx = static_cast<std::size_t>(b.count_nanos() / bin_width_.count_nanos());
    const TimePoint bin_end =
        TimePoint::origin() + bin_width_ * static_cast<std::int64_t>(idx + 1);
    const TimePoint seg_end = std::min(e, bin_end);
    bin_at(idx) += rate * (seg_end - b).to_seconds();
    b = seg_end;
  }
}

void BinnedSeries::add_interval(TimePoint begin, TimePoint end) {
  if (end <= begin) return;
  auto b = std::max(begin, TimePoint::origin());
  const auto e = std::min(end, horizon_end());
  while (b < e) {
    const auto idx = static_cast<std::size_t>(b.count_nanos() / bin_width_.count_nanos());
    const TimePoint bin_end =
        TimePoint::origin() + bin_width_ * static_cast<std::int64_t>(idx + 1);
    const TimePoint seg_end = std::min(e, bin_end);
    bin_at(idx) += (seg_end - b).to_seconds();
    b = seg_end;
  }
}

TimePoint BinnedSeries::bin_start(std::size_t i) const {
  PROPHET_CHECK(i < bin_count_);
  return TimePoint::origin() + bin_width_ * static_cast<std::int64_t>(i);
}

double BinnedSeries::bin_amount(std::size_t i) const {
  PROPHET_CHECK(i < bin_count_);
  return i < bins_.size() ? bins_[i] : 0.0;
}

double BinnedSeries::bin_rate(std::size_t i) const {
  return bin_amount(i) / bin_width_.to_seconds();
}

double BinnedSeries::mean_rate(std::size_t first, std::size_t last) const {
  PROPHET_CHECK(first <= last && last <= bin_count_);
  if (first == last) return 0.0;
  // Unwritten bins would each add +0.0, which changes no sum: only stored
  // bins are visited.
  double total = 0.0;
  const std::size_t stored_last = std::min(last, bins_.size());
  for (std::size_t i = first; i < stored_last; ++i) total += bin_rate(i);
  return total / static_cast<double>(last - first);
}

}  // namespace prophet
