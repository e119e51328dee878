#include <gtest/gtest.h>

#include "common/time_series.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

TEST(BinnedSeries, BinCountCoversHorizon) {
  BinnedSeries s{100_ms, 1_s};
  EXPECT_EQ(s.bin_count(), 10u);
  BinnedSeries ragged{300_ms, 1_s};
  EXPECT_EQ(ragged.bin_count(), 4u);  // ceil(1000/300)
}

TEST(BinnedSeries, AddAmountLandsInCorrectBin) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 250_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(2), 5.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(1), 0.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(3), 0.0);
}

TEST(BinnedSeries, AmountPastHorizonIsDropped) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 5_s, 3.0);
  for (std::size_t i = 0; i < s.bin_count(); ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0);
}

TEST(BinnedSeries, AddIntervalSplitsAcrossBins) {
  BinnedSeries s{100_ms, 1_s};
  // Busy from 150 ms to 350 ms: 50 ms in bin 1, 100 ms in bin 2, 50 ms in bin 3.
  s.add_interval(TimePoint::origin() + 150_ms, TimePoint::origin() + 350_ms);
  EXPECT_NEAR(s.bin_amount(1), 0.050, 1e-12);
  EXPECT_NEAR(s.bin_amount(2), 0.100, 1e-12);
  EXPECT_NEAR(s.bin_amount(3), 0.050, 1e-12);
  // Utilization fractions.
  EXPECT_NEAR(s.bin_rate(2), 1.0, 1e-12);
  EXPECT_NEAR(s.bin_rate(1), 0.5, 1e-12);
}

TEST(BinnedSeries, AddIntervalEmptyOrReversedIsNoop) {
  BinnedSeries s{100_ms, 1_s};
  s.add_interval(TimePoint::origin() + 200_ms, TimePoint::origin() + 200_ms);
  s.add_interval(TimePoint::origin() + 300_ms, TimePoint::origin() + 200_ms);
  for (std::size_t i = 0; i < s.bin_count(); ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0);
}

TEST(BinnedSeries, AddAmountSpreadProRataAcrossBins) {
  BinnedSeries s{100_ms, 1_s};
  // 300 bytes spread over [50 ms, 350 ms): bins get 50/300, 100/300, 100/300, 50/300.
  s.add_amount_spread(TimePoint::origin() + 50_ms, TimePoint::origin() + 350_ms, 300.0);
  EXPECT_NEAR(s.bin_amount(0), 50.0, 1e-9);
  EXPECT_NEAR(s.bin_amount(1), 100.0, 1e-9);
  EXPECT_NEAR(s.bin_amount(2), 100.0, 1e-9);
  EXPECT_NEAR(s.bin_amount(3), 50.0, 1e-9);
}

TEST(BinnedSeries, SpreadWithZeroSpanFallsBackToPoint) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount_spread(TimePoint::origin() + 120_ms, TimePoint::origin() + 120_ms, 7.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(1), 7.0);
}

TEST(BinnedSeries, RateDividesByBinWidth) {
  BinnedSeries s{500_ms, 2_s};
  s.add_amount(TimePoint::origin() + 600_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.bin_rate(1), 200.0);  // 100 units / 0.5 s
}

TEST(BinnedSeries, MeanRateOverWindow) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 50_ms, 10.0);   // bin 0 -> rate 100
  s.add_amount(TimePoint::origin() + 150_ms, 30.0);  // bin 1 -> rate 300
  EXPECT_DOUBLE_EQ(s.mean_rate(0, 2), 200.0);
  EXPECT_DOUBLE_EQ(s.mean_rate(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(s.mean_rate(5, 5), 0.0);
}

TEST(BinnedSeries, UnwrittenBinsReadZeroUpToLogicalCount) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 150_ms, 4.0);
  EXPECT_EQ(s.bin_count(), 10u);
  for (std::size_t i = 0; i < s.bin_count(); ++i) {
    EXPECT_DOUBLE_EQ(s.bin_amount(i), i == 1 ? 4.0 : 0.0) << i;
  }
  // The mean still averages over every logical bin, unwritten ones as 0.
  EXPECT_DOUBLE_EQ(s.mean_rate(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean_rate(2, 10), 0.0);
}

TEST(BinnedSeries, WritesPastHorizonAreDroppedByEveryWriter) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin() + 1_s, 1.0);
  // Only the 50 ms inside the horizon land, in the last bin.
  s.add_interval(TimePoint::origin() + 950_ms, TimePoint::origin() + 3_s);
  s.add_amount_spread(TimePoint::origin() + 900_ms, TimePoint::origin() + 1100_ms, 200.0);
  EXPECT_NEAR(s.bin_amount(9), 0.050 + 100.0, 1e-9);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(s.bin_amount(i), 0.0) << i;
  EXPECT_EQ(s.bin_count(), 10u);
}

TEST(BinnedSeries, HugeLogicalHorizonRecordsNearOrigin) {
  // 3.6e12 logical bins: eager storage (29 TB of doubles) could not exist.
  BinnedSeries s{1_ns, 3600_s};
  EXPECT_EQ(s.bin_count(), 3'600'000'000'000u);
  s.add_amount(TimePoint::origin() + 5_ns, 2.0);
  s.add_interval(TimePoint::origin(), TimePoint::origin() + 3_ns);
  EXPECT_DOUBLE_EQ(s.bin_amount(5), 2.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(1), 1e-9);
  EXPECT_DOUBLE_EQ(s.bin_amount(4), 0.0);
  EXPECT_DOUBLE_EQ(s.bin_amount(s.bin_count() - 1), 0.0);
  EXPECT_EQ(s.bin_start(s.bin_count() - 1), TimePoint::origin() + 3600_s - 1_ns);
}

TEST(BinnedSeriesDeathTest, ReadPastLogicalCountAborts) {
  BinnedSeries s{100_ms, 1_s};
  s.add_amount(TimePoint::origin(), 1.0);
  EXPECT_DEATH((void)s.bin_amount(10), "");
  EXPECT_DEATH((void)s.mean_rate(0, 11), "");
}

TEST(BinnedSeries, BinStart) {
  BinnedSeries s{250_ms, 1_s};
  EXPECT_EQ(s.bin_start(0), TimePoint::origin());
  EXPECT_EQ(s.bin_start(3), TimePoint::origin() + 750_ms);
}

}  // namespace
}  // namespace prophet
