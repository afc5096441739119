#include "check/shrink.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace evvo::check {

namespace {

/// Does the spec still trip `invariant` (by id) under `options`?
bool still_fails(const ScenarioSpec& spec, const CheckOptions& options,
                 const std::string& invariant) {
  const CheckReport report = check_scenario(spec, options);
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

/// Transforms tried per round: one drop per light, one per stop sign, then
/// the fixed simplifications of `apply_transform`.
constexpr std::size_t kFixedTransforms = 6;

std::size_t transform_count(const ScenarioSpec& spec) {
  return spec.lights.size() + spec.stop_signs.size() + kFixedTransforms;
}

/// Candidate simplification `index` of one round, cheapest-win first:
/// std::nullopt when it would not change `s`. Indices are recounted each
/// round because an accepted drop changes the element counts.
std::optional<ScenarioSpec> apply_transform(const ScenarioSpec& s, std::size_t index) {
  ScenarioSpec next = s;
  if (index < s.lights.size()) {
    next.lights.erase(next.lights.begin() + static_cast<std::ptrdiff_t>(index));
    return next;
  }
  index -= s.lights.size();
  if (index < s.stop_signs.size()) {
    next.stop_signs.erase(next.stop_signs.begin() + static_cast<std::ptrdiff_t>(index));
    return next;
  }
  switch (index - s.stop_signs.size()) {
    case 0:
      if (std::all_of(s.segments.begin(), s.segments.end(),
                      [](const road::RoadSegment& seg) { return seg.grade_rad == 0.0; }))
        return std::nullopt;
      for (road::RoadSegment& seg : next.segments) seg.grade_rad = 0.0;
      return next;
    case 1: {
      if (s.segments.size() <= 1) return std::nullopt;
      road::RoadSegment merged = next.segments.front();
      merged.end_m = next.segments.back().end_m;
      next.segments = {merged};
      return next;
    }
    case 2:
      if (s.arrival_veh_h.size() <= 1) return std::nullopt;
      next.arrival_veh_h = {next.arrival_veh_h.front()};
      return next;
    case 3:
      if (s.depart_time_s == 0.0) return std::nullopt;
      next.depart_time_s = 0.0;
      return next;
    case 4:
      next.vehicle = ev::VehicleParams{};
      break;
    case 5: {
      const core::DpResolution defaults{};
      next.planner.resolution.ds_m = defaults.ds_m;
      next.planner.resolution.dv_ms = defaults.dv_ms;
      next.planner.resolution.dt_s = defaults.dt_s;
      break;
    }
  }
  if (spec_to_text(next) == spec_to_text(s)) return std::nullopt;
  return next;
}

}  // namespace

ShrinkResult shrink_failure(const ScenarioSpec& failing, const CheckOptions& options,
                            std::size_t max_checks) {
  ShrinkResult result;
  result.spec = failing;

  const CheckReport initial = check_scenario(failing, options);
  ++result.checks_run;
  if (initial.ok()) return result;  // nothing to shrink
  result.invariant = initial.violations.front().invariant;

  bool progressed = true;
  while (progressed && result.checks_run < max_checks) {
    progressed = false;
    for (std::size_t t = 0; t < transform_count(result.spec); ++t) {
      if (result.checks_run >= max_checks) break;
      std::optional<ScenarioSpec> candidate = apply_transform(result.spec, t);
      if (!candidate) continue;
      candidate->seed = 0;  // no longer reproducible from a seed
      ++result.checks_run;
      bool fails = false;
      try {
        fails = still_fails(*candidate, options, result.invariant);
      } catch (...) {
        fails = false;  // a transform that breaks materialization is not a shrink
      }
      if (fails) {
        result.spec = std::move(*candidate);
        result.changed = true;
        progressed = true;
        break;  // restart with fresh transforms against the smaller spec
      }
    }
  }
  return result;
}

}  // namespace evvo::check
