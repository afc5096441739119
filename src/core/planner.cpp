#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "core/workspace_pool.hpp"

namespace evvo::core {

const char* signal_policy_name(SignalPolicy policy) {
  switch (policy) {
    case SignalPolicy::kQueueAware:
      return "queue-aware (proposed)";
    case SignalPolicy::kGreenWindow:
      return "green-window (current DP)";
    case SignalPolicy::kIgnoreSignals:
      return "signal-oblivious";
  }
  return "?";
}

VelocityPlanner::VelocityPlanner(road::Corridor corridor, ev::EnergyModel energy,
                                 PlannerConfig config)
    : corridor_(std::move(corridor)),
      energy_(std::move(energy)),
      config_(std::move(config)),
      workspaces_(std::make_shared<WorkspacePool>()) {
  config_.resolution.validate();
  config_.penalty.validate();
}

namespace {

/// Builds the DP layer events for any corridor under a planner config.
std::vector<LayerEvent> build_events_for(
    const road::Corridor& corridor, const PlannerConfig& config, double depart_time_s,
    const std::shared_ptr<const traffic::ArrivalRateProvider>& arrivals) {
  // Before the arrival-rate provider and the T_q windows ever see it.
  if (!std::isfinite(depart_time_s))
    throw std::invalid_argument("VelocityPlanner: departure time must be finite");
  const road::Route& route = corridor.route;
  const auto n_hops = static_cast<std::size_t>(
      std::max(1.0, std::round(route.length() / config.resolution.ds_m)));
  const double ds = route.length() / static_cast<double>(n_hops);
  const auto snap = [&](double position) {
    const auto layer = static_cast<std::size_t>(std::llround(position / ds));
    if (layer == 0 || layer >= n_hops)
      throw std::invalid_argument("VelocityPlanner: regulatory element at the route boundary");
    return layer;
  };

  std::vector<LayerEvent> events;
  for (const road::StopSign& sign : corridor.stop_signs) {
    LayerEvent e;
    e.type = LayerEvent::Type::kStopSign;
    e.layer = snap(sign.position_m);
    e.dwell_s = sign.min_stop_s;
    events.push_back(std::move(e));
  }
  const double t0 = depart_time_s;
  const double t1 = depart_time_s + config.resolution.horizon_s;
  for (const road::TrafficLight& light : corridor.lights) {
    LayerEvent e;
    e.type = LayerEvent::Type::kSignal;
    e.layer = snap(light.position());
    switch (config.policy) {
      case SignalPolicy::kQueueAware: {
        if (!arrivals)
          throw std::invalid_argument("VelocityPlanner: queue-aware planning needs arrival rates");
        const traffic::QueuePredictor predictor(
            light, traffic::QueueModel(config.vm, config.discharge), arrivals);
        e.windows = predictor.zero_queue_windows(Seconds(t0), Seconds(t1));
        e.enforce_windows = true;
        break;
      }
      case SignalPolicy::kGreenWindow:
        e.windows = light.green_windows(t0, t1);
        e.enforce_windows = true;
        break;
      case SignalPolicy::kIgnoreSignals:
        e.enforce_windows = false;
        break;
    }
    // Safety margins are part of the proposed system; the green-window
    // baseline believes vehicles pass the instant the light is green (the
    // very assumption the paper attacks), so it gets no margins.
    if (e.enforce_windows && config.policy == SignalPolicy::kQueueAware) {
      std::vector<road::TimeWindow> trimmed;
      for (road::TimeWindow w : e.windows) {
        w.start_s += config.window_start_margin_s;
        w.end_s -= config.window_end_margin_s;
        if (w.duration() > 0.0) trimmed.push_back(w);
      }
      e.windows = std::move(trimmed);
    }
    events.push_back(std::move(e));
  }
  // Distinct elements must land on distinct layers (10 m grid vs. hundreds of
  // meters of separation on the experimental corridor).
  for (std::size_t a = 0; a < events.size(); ++a) {
    for (std::size_t b = a + 1; b < events.size(); ++b) {
      if (events[a].layer == events[b].layer)
        throw std::invalid_argument("VelocityPlanner: two regulatory elements share a grid layer");
    }
  }
  return events;
}

DpProblem make_problem(const road::Route& route, const ev::EnergyModel& energy,
                       const PlannerConfig& config, double depart_time_s,
                       std::vector<LayerEvent> events) {
  DpProblem problem;
  problem.route = &route;
  problem.energy = &energy;
  problem.depart_time = Seconds(depart_time_s);
  problem.resolution = config.resolution;
  problem.penalty = config.penalty;
  problem.time_weight_mah_per_s = config.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = config.smoothness_weight_mah_per_ms;
  problem.dominance_pruning = config.dominance_pruning;
  problem.events = std::move(events);
  return problem;
}

}  // namespace

std::vector<LayerEvent> VelocityPlanner::build_events(
    Seconds depart_time, std::shared_ptr<const traffic::ArrivalRateProvider> arrivals) const {
  return build_events_for(corridor_, config_, depart_time.value(), arrivals);
}

std::optional<DpSolution> VelocityPlanner::solve_problem(const DpProblem& problem) const {
  std::unique_ptr<DpWorkspace> workspace = workspaces_->acquire();
  std::optional<DpSolution> solution;
  try {
    solution = solve_dp(problem, *workspace);
  } catch (...) {
    workspaces_->release(std::move(workspace));
    throw;
  }
  workspaces_->release(std::move(workspace));
  return solution;
}

DpSolution VelocityPlanner::plan_with_stats(
    Seconds depart_time, std::shared_ptr<const traffic::ArrivalRateProvider> arrivals) const {
  const double depart_time_s = depart_time.value();  // .value() seam
  DpProblem problem = make_problem(corridor_.route, energy_, config_, depart_time_s,
                                   build_events_for(corridor_, config_, depart_time_s, arrivals));
  auto solution = solve_problem(problem);
  if (!solution.has_value())
    throw std::runtime_error("VelocityPlanner: no feasible trajectory within the horizon");
  return std::move(*solution);
}

PlannedProfile VelocityPlanner::plan(
    Seconds depart_time, std::shared_ptr<const traffic::ArrivalRateProvider> arrivals) const {
  return plan_with_stats(depart_time, std::move(arrivals)).profile;
}

long VelocityPlanner::speed_level(MetersPerSecond speed) const {
  const double speed_ms = speed.value();  // .value() seam
  const double dv = config_.resolution.dv_ms;
  // lround(x) <= top exactly when x < top + 0.5 (x >= 0); comparing in
  // double keeps huge speeds away from lround. Written so that NaN fails.
  const double top = std::floor(corridor_.route.max_speed_limit() / dv);
  if (!(speed_ms >= 0.0 && speed_ms / dv < top + 0.5))
    throw std::invalid_argument("VelocityPlanner: speed outside the velocity grid");
  return std::lround(speed_ms / dv);
}

PlannedProfile VelocityPlanner::replan(
    Meters position, MetersPerSecond speed, Seconds time,
    std::shared_ptr<const traffic::ArrivalRateProvider> arrivals) const {
  const double position_m = position.value();  // .value() seam
  const double speed_ms = speed.value();
  const double time_s = time.value();
  // Written so that NaN fails the range check instead of passing it.
  if (!(position_m >= 0.0 && position_m < corridor_.length()))
    throw std::invalid_argument("VelocityPlanner::replan: position outside the corridor");
  if (!std::isfinite(speed_ms) || !std::isfinite(time_s))
    throw std::invalid_argument("VelocityPlanner::replan: speed and time must be finite");
  (void)speed_level(speed);
  road::Corridor rest = road::corridor_suffix(corridor_, position_m);
  // Elements closer than one grid step count as already passed (they would
  // otherwise snap to the boundary layer).
  const double too_close = config_.resolution.ds_m * 1.5;
  std::erase_if(rest.lights,
                [&](const road::TrafficLight& l) { return l.position() < too_close; });
  std::erase_if(rest.stop_signs,
                [&](const road::StopSign& s) { return s.position_m < too_close; });
  // Signal offsets are absolute times; nothing to shift there.

  DpProblem problem = make_problem(rest.route, energy_, config_, time_s,
                                   build_events_for(rest, config_, time_s, arrivals));
  problem.initial_speed =
      MetersPerSecond(clamp(speed_ms, 0.0, rest.route.speed_limit_at(0.0)));
  auto solution = solve_problem(problem);
  if (!solution.has_value())
    throw std::runtime_error("VelocityPlanner::replan: no feasible trajectory within the horizon");
  return solution->profile.shifted(position_m);
}

}  // namespace evvo::core
