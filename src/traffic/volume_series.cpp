#include "traffic/volume_series.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/units.hpp"

namespace evvo::traffic {

HourlyVolumeSeries::HourlyVolumeSeries(std::vector<double> volumes, int start_hour_of_week)
    : volumes_(std::move(volumes)), start_hour_of_week_(start_hour_of_week) {
  if (start_hour_of_week_ < 0 || start_hour_of_week_ >= kHoursPerWeek)
    throw std::invalid_argument("HourlyVolumeSeries: start hour out of [0, 168)");
  for (const double v : volumes_) {
    if (v < 0.0 || !std::isfinite(v))
      throw std::invalid_argument("HourlyVolumeSeries: volumes must be finite and >= 0");
  }
}

int HourlyVolumeSeries::hour_of_day(std::size_t hour_index) const {
  return static_cast<int>((start_hour_of_week_ + hour_index) % kHoursPerDay);
}

int HourlyVolumeSeries::day_of_week(std::size_t hour_index) const {
  return static_cast<int>(((start_hour_of_week_ + hour_index) % kHoursPerWeek) / kHoursPerDay);
}

double HourlyVolumeSeries::volume_at_time(double seconds_from_start) const {
  if (volumes_.empty()) throw std::logic_error("HourlyVolumeSeries: empty series");
  if (std::isnan(seconds_from_start)) throw std::invalid_argument("HourlyVolumeSeries: NaN time");
  const double hours = seconds_from_start / kSecondsPerHour;
  // Clamped in double before the cast: casting +inf (or anything past
  // SIZE_MAX) to an integer is undefined.
  const std::size_t last = volumes_.size() - 1;
  const std::size_t idx = hours <= 0.0                          ? 0
                          : hours >= static_cast<double>(last) ? last
                                                               : static_cast<std::size_t>(hours);
  return volumes_[idx];
}

HourlyVolumeSeries HourlyVolumeSeries::slice(std::size_t from, std::size_t count) const {
  if (from + count > volumes_.size()) throw std::out_of_range("HourlyVolumeSeries::slice: out of range");
  std::vector<double> sub(volumes_.begin() + static_cast<std::ptrdiff_t>(from),
                          volumes_.begin() + static_cast<std::ptrdiff_t>(from + count));
  const int start = static_cast<int>((start_hour_of_week_ + from) % kHoursPerWeek);
  return HourlyVolumeSeries(std::move(sub), start);
}

std::pair<HourlyVolumeSeries, HourlyVolumeSeries> HourlyVolumeSeries::split(std::size_t head_hours) const {
  if (head_hours > volumes_.size()) throw std::out_of_range("HourlyVolumeSeries::split: out of range");
  return {slice(0, head_hours), slice(head_hours, volumes_.size() - head_hours)};
}

double HourlyVolumeSeries::max_volume() const {
  return volumes_.empty() ? 0.0 : *std::max_element(volumes_.begin(), volumes_.end());
}

double HourlyVolumeSeries::mean_volume() const { return mean(volumes_); }

}  // namespace evvo::traffic
