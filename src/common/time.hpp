// Strong time types for the discrete-event simulator.
//
// `Duration` is a span, `TimePoint` an absolute simulation time; both count
// integer nanoseconds so event ordering is exact and runs are bit-reproducible
// (no floating-point clock drift). Conversions to/from floating-point seconds
// and milliseconds exist only at the measurement/reporting boundary.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "common/check.hpp"

namespace prophet {

class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration nanos(std::int64_t n) { return Duration{n}; }
  static constexpr Duration micros(std::int64_t u) { return Duration{u * 1'000}; }
  static constexpr Duration millis(std::int64_t m) { return Duration{m * 1'000'000}; }
  static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  // Converts a floating-point second count, rounding to the nearest nanosecond.
  // Aborts on NaN, infinities and counts beyond the int64 nanosecond range
  // (about +-292 years), whose conversion would be undefined.
  static constexpr Duration from_seconds(double s) {
    const double ns = s * 1e9 + (s >= 0 ? 0.5 : -0.5);
    // 2^63 is exact in a double; NaN fails both comparisons.
    PROPHET_CHECK_MSG(ns >= -0x1p63 && ns < 0x1p63,
                      "Duration::from_seconds: seconds must be finite and within "
                      "the int64 nanosecond range");
    return Duration{static_cast<std::int64_t>(ns)};
  }
  static constexpr Duration from_millis(double ms) { return from_seconds(ms * 1e-3); }
  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t count_nanos() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double to_micros() const { return static_cast<double>(ns_) * 1e-3; }

  friend constexpr auto operator<=>(Duration, Duration) = default;
  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator*(Duration a, double k) {
    return from_seconds(a.to_seconds() * k);
  }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.ns_ / k}; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }
  constexpr Duration operator-() const { return Duration{-ns_}; }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint origin() { return TimePoint{}; }
  static constexpr TimePoint from_nanos(std::int64_t n) { return TimePoint{Duration::nanos(n)}; }
  static constexpr TimePoint max() { return TimePoint{Duration::max()}; }

  // Time elapsed since the simulation origin.
  [[nodiscard]] constexpr Duration since_origin() const { return d_; }
  [[nodiscard]] constexpr std::int64_t count_nanos() const { return d_.count_nanos(); }
  [[nodiscard]] constexpr double to_seconds() const { return d_.to_seconds(); }
  [[nodiscard]] constexpr double to_millis() const { return d_.to_millis(); }

  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;
  friend constexpr TimePoint operator+(TimePoint t, Duration d) { return TimePoint{t.d_ + d}; }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return TimePoint{t.d_ + d}; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) { return TimePoint{t.d_ - d}; }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) { return a.d_ - b.d_; }
  constexpr TimePoint& operator+=(Duration d) { d_ += d; return *this; }

 private:
  constexpr explicit TimePoint(Duration d) : d_{d} {}
  Duration d_{};
};

// (a - b)^+ : the positive part used throughout the paper's wait-time model
// (Eq. (2): GPU idle time only accrues when the update completes *after* the
// previous layer's forward pass).
constexpr Duration positive_part(Duration d) { return d > Duration::zero() ? d : Duration::zero(); }

inline std::string format_duration(Duration d) {
  const double ms = d.to_millis();
  char buf[64];
  if (ms >= 1000.0) {
    std::snprintf(buf, sizeof buf, "%.3f s", ms / 1000.0);
  } else if (ms >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f ms", ms);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f us", d.to_micros());
  }
  return buf;
}

namespace literals {
constexpr Duration operator""_ns(unsigned long long n) {
  return Duration::nanos(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_us(unsigned long long n) {
  return Duration::micros(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_ms(unsigned long long n) {
  return Duration::millis(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_s(unsigned long long n) {
  return Duration::seconds(static_cast<std::int64_t>(n));
}
}  // namespace literals

}  // namespace prophet
