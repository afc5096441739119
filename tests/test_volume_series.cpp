#include "traffic/volume_series.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/units.hpp"
#include "data/synthetic_volume.hpp"

namespace evvo::traffic {
namespace {

HourlyVolumeSeries tiny_series() {
  // 48 hours starting Monday 00:00, volume = hour index.
  std::vector<double> v;
  for (int i = 0; i < 48; ++i) v.push_back(i);
  return HourlyVolumeSeries(std::move(v), 0);
}

TEST(VolumeSeries, CalendarIndexing) {
  const HourlyVolumeSeries s = tiny_series();
  EXPECT_EQ(s.hour_of_day(0), 0);
  EXPECT_EQ(s.hour_of_day(25), 1);
  EXPECT_EQ(s.day_of_week(0), 0);
  EXPECT_EQ(s.day_of_week(25), 1);
}

TEST(VolumeSeries, StartOffsetShiftsCalendar) {
  std::vector<double> v(10, 1.0);
  const HourlyVolumeSeries s(std::move(v), 30);  // Tuesday 06:00
  EXPECT_EQ(s.hour_of_day(0), 6);
  EXPECT_EQ(s.day_of_week(0), 1);
}

TEST(VolumeSeries, RejectsBadInputs) {
  EXPECT_THROW(HourlyVolumeSeries({-1.0}, 0), std::invalid_argument);
  EXPECT_THROW(HourlyVolumeSeries({1.0}, 200), std::invalid_argument);
}

TEST(VolumeSeries, VolumeAtTimePiecewiseConstant) {
  const HourlyVolumeSeries s = tiny_series();
  EXPECT_DOUBLE_EQ(s.volume_at_time(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.volume_at_time(3599.0), 0.0);
  EXPECT_DOUBLE_EQ(s.volume_at_time(3600.0), 1.0);
  EXPECT_DOUBLE_EQ(s.volume_at_time(-5.0), 0.0);          // clamped
  EXPECT_DOUBLE_EQ(s.volume_at_time(1e9), 47.0);           // clamped
}

TEST(VolumeSeries, VolumeAtNonFiniteTimeClampsOrThrows) {
  const HourlyVolumeSeries s = tiny_series();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(s.volume_at_time(kInf), 47.0);
  EXPECT_DOUBLE_EQ(s.volume_at_time(-kInf), 0.0);
  EXPECT_DOUBLE_EQ(s.volume_at_time(1e300), 47.0);
  EXPECT_THROW((void)s.volume_at_time(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(VolumeSeries, SliceKeepsCalendarAlignment) {
  const HourlyVolumeSeries s = tiny_series();
  const HourlyVolumeSeries sub = s.slice(25, 5);
  EXPECT_EQ(sub.size(), 5u);
  EXPECT_DOUBLE_EQ(sub.at(0), 25.0);
  EXPECT_EQ(sub.hour_of_day(0), 1);
  EXPECT_EQ(sub.day_of_week(0), 1);
}

TEST(VolumeSeries, SliceOutOfRangeThrows) {
  EXPECT_THROW(tiny_series().slice(40, 20), std::out_of_range);
}

TEST(VolumeSeries, SplitPartitions) {
  const auto [head, tail] = tiny_series().split(24);
  EXPECT_EQ(head.size(), 24u);
  EXPECT_EQ(tail.size(), 24u);
  EXPECT_EQ(tail.day_of_week(0), 1);
  EXPECT_DOUBLE_EQ(tail.at(0), 24.0);
}

TEST(VolumeSeries, Aggregates) {
  const HourlyVolumeSeries s({1.0, 3.0, 5.0}, 0);
  EXPECT_DOUBLE_EQ(s.max_volume(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean_volume(), 3.0);
}

// --- synthetic generator (data module) ---

TEST(SyntheticVolume, ExpectedShapeHasCommutePeaks) {
  const data::VolumePatternConfig cfg;
  const double am = data::expected_volume(cfg, 7, 2);
  const double noon = data::expected_volume(cfg, 12, 2);
  const double pm = data::expected_volume(cfg, 17, 2);
  const double night = data::expected_volume(cfg, 3, 2);
  EXPECT_GT(am, noon);
  EXPECT_GT(pm, noon);
  EXPECT_GT(noon, night);
  EXPECT_GT(pm, am);  // evening peak dominates on this corridor
}

TEST(SyntheticVolume, WeekendIsFlatterAndLighter) {
  const data::VolumePatternConfig cfg;
  EXPECT_LT(data::expected_volume(cfg, 7, 6), data::expected_volume(cfg, 7, 2));
  EXPECT_LT(data::expected_volume(cfg, 17, 5), data::expected_volume(cfg, 17, 4));
}

TEST(SyntheticVolume, CalendarValidation) {
  const data::VolumePatternConfig cfg;
  EXPECT_THROW(data::expected_volume(cfg, 24, 0), std::invalid_argument);
  EXPECT_THROW(data::expected_volume(cfg, 0, 7), std::invalid_argument);
}

TEST(SyntheticVolume, GeneratorProducesWholeWeeks) {
  const auto s = data::generate_hourly_volumes(data::VolumePatternConfig{}, 2);
  EXPECT_EQ(s.size(), 2u * kHoursPerWeek);
  EXPECT_EQ(s.start_hour_of_week(), 0);
  for (const double v : s.values()) EXPECT_GE(v, 0.0);
}

TEST(SyntheticVolume, SampledSeriesTracksExpectedShape) {
  data::VolumePatternConfig cfg;
  cfg.incident_probability_per_day = 0.0;
  const auto s = data::generate_hourly_volumes(cfg, 4);
  // Average the four Tuesdays at 17:00 and compare against the mean shape.
  double sum = 0.0;
  for (int w = 0; w < 4; ++w) sum += s.at(w * kHoursPerWeek + 1 * 24 + 17);
  EXPECT_NEAR(sum / 4.0, data::expected_volume(cfg, 17, 1), cfg.evening_peak_veh_h * 0.1);
}

TEST(SyntheticVolume, DeterministicPerSeed) {
  const auto a = data::generate_hourly_volumes(data::VolumePatternConfig{}, 1);
  const auto b = data::generate_hourly_volumes(data::VolumePatternConfig{}, 1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a.at(i), b.at(i));
}

TEST(SyntheticVolume, DatasetSplitMatchesProtocol) {
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 13, 1);
  EXPECT_EQ(ds.train.size(), 13u * kHoursPerWeek);
  EXPECT_EQ(ds.test.size(), 1u * kHoursPerWeek);
  EXPECT_EQ(ds.test.day_of_week(0), 0);  // test week starts Monday, like June 6 2016
}

TEST(SyntheticVolume, RejectsBadWeeks) {
  EXPECT_THROW(data::generate_hourly_volumes(data::VolumePatternConfig{}, 0), std::invalid_argument);
  EXPECT_THROW(data::make_us25_dataset(data::VolumePatternConfig{}, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace evvo::traffic
