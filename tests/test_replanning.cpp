// Mid-route replanning: route/corridor suffixes, the solver's boundary-speed
// support, VelocityPlanner::replan, and the closed-loop adaptive pilot.
#include <gtest/gtest.h>

#include <cmath>

#include <limits>
#include <memory>

#include "core/planner.hpp"
#include "ev/energy_model.hpp"
#include "pilot/pilot.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"

namespace evvo {
namespace {

std::shared_ptr<traffic::ConstantArrivalRate> demand(double veh_h) {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(veh_h));
}

TEST(RouteSuffix, RebasesSegments) {
  const road::Route route({{0.0, 100.0, 15.0, 0.0, 0.0}, {100.0, 300.0, 25.0, 5.0, 0.02}});
  const road::Route rest = route.suffix(50.0);
  EXPECT_DOUBLE_EQ(rest.length(), 250.0);
  EXPECT_DOUBLE_EQ(rest.speed_limit_at(10.0), 15.0);
  EXPECT_DOUBLE_EQ(rest.speed_limit_at(100.0), 25.0);
  EXPECT_DOUBLE_EQ(rest.grade_at(200.0), 0.02);
}

TEST(RouteSuffix, MidSegmentCutKeepsProperties) {
  const road::Route route({{0.0, 300.0, 20.0, 0.0, 0.01}});
  const road::Route rest = route.suffix(120.0);
  EXPECT_DOUBLE_EQ(rest.length(), 180.0);
  EXPECT_DOUBLE_EQ(rest.segments().front().start_m, 0.0);
}

TEST(RouteSuffix, RejectsOutOfRange) {
  const road::Route route({{0.0, 100.0, 15.0, 0.0, 0.0}});
  EXPECT_THROW(route.suffix(-1.0), std::invalid_argument);
  EXPECT_THROW(route.suffix(100.0), std::invalid_argument);
}

TEST(CorridorSuffix, DropsPassedElementsKeepsOffsets) {
  const road::Corridor corridor = road::make_us25_corridor();
  const road::Corridor rest = road::corridor_suffix(corridor, 2000.0);
  EXPECT_DOUBLE_EQ(rest.length(), 2200.0);
  ASSERT_EQ(rest.lights.size(), 1u);                 // only light 2 remains
  EXPECT_DOUBLE_EQ(rest.lights[0].position(), 1460.0);
  EXPECT_DOUBLE_EQ(rest.lights[0].offset(), corridor.lights[1].offset());  // absolute time kept
  EXPECT_TRUE(rest.stop_signs.empty());              // sign at 490 m already passed
}

TEST(DpSolver, InitialSpeedBoundary) {
  const road::Route route({{0.0, 500.0, 20.0, 0.0, 0.0}});
  const ev::EnergyModel energy;
  core::DpProblem p;
  p.route = &route;
  p.energy = &energy;
  p.resolution = core::DpResolution{10.0, 0.5, 1.0, 120.0};
  p.time_weight_mah_per_s = 3.0;
  p.initial_speed = MetersPerSecond(15.0);
  const auto solution = core::solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  EXPECT_DOUBLE_EQ(solution->profile.nodes().front().speed_ms, 15.0);
  EXPECT_DOUBLE_EQ(solution->profile.nodes().back().speed_ms, 0.0);
  // A moving start finishes the 500 m faster than a standing start.
  core::DpProblem standing = p;
  standing.initial_speed = MetersPerSecond(0.0);
  const auto from_rest = core::solve_dp(standing);
  ASSERT_TRUE(from_rest.has_value());
  EXPECT_LT(solution->profile.trip_time(), from_rest->profile.trip_time());
}

TEST(DpSolver, FinalSpeedBoundary) {
  const road::Route route({{0.0, 500.0, 20.0, 0.0, 0.0}});
  const ev::EnergyModel energy;
  core::DpProblem p;
  p.route = &route;
  p.energy = &energy;
  p.resolution = core::DpResolution{10.0, 0.5, 1.0, 120.0};
  p.time_weight_mah_per_s = 3.0;
  p.final_speed = MetersPerSecond(10.0);
  const auto solution = core::solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  EXPECT_DOUBLE_EQ(solution->profile.nodes().back().speed_ms, 10.0);
}

TEST(DpSolver, RejectsBoundarySpeedAboveGrid) {
  const road::Route route({{0.0, 500.0, 20.0, 0.0, 0.0}});
  const ev::EnergyModel energy;
  core::DpProblem p;
  p.route = &route;
  p.energy = &energy;
  p.initial_speed = MetersPerSecond(35.0);  // above the 20 m/s limit grid
  EXPECT_THROW(core::solve_dp(p), std::invalid_argument);
}

core::VelocityPlanner make_planner(core::SignalPolicy policy = core::SignalPolicy::kQueueAware) {
  sim::MicrosimConfig sim_config;
  core::PlannerConfig cfg;
  cfg.policy = policy;
  cfg.vm = sim::calibrated_vm_params(sim_config.background_driver, 13.4,
                                     sim_config.straight_ratio);
  return core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg);
}

TEST(Replan, ContinuesInOriginalCoordinates) {
  const core::VelocityPlanner planner = make_planner();
  const auto arrivals = demand(765.0);
  const core::PlannedProfile rest = planner.replan(Meters(2000.0), MetersPerSecond(15.0), Seconds(700.0), arrivals);
  EXPECT_DOUBLE_EQ(rest.nodes().front().position_m, 2000.0);
  EXPECT_NEAR(rest.nodes().back().position_m, 4200.0, 1e-6);
  EXPECT_DOUBLE_EQ(rest.depart_time(), 700.0);
  EXPECT_NEAR(rest.nodes().front().speed_ms, 15.0, 0.51);  // snapped to the grid
}

TEST(Replan, CrossesRemainingLightInsideWindow) {
  const core::VelocityPlanner planner = make_planner();
  const auto arrivals = demand(765.0);
  const core::PlannedProfile rest = planner.replan(Meters(2000.0), MetersPerSecond(15.0), Seconds(700.0), arrivals);
  const double crossing = rest.departure_time_at(3460.0);
  const traffic::QueuePredictor predictor(planner.corridor().lights[1],
                                          traffic::QueueModel(planner.config().vm), arrivals);
  // Inside the un-margined window at least.
  bool ok = false;
  for (const auto& w : predictor.zero_queue_windows(Seconds(700.0), Seconds(1200.0))) ok |= w.contains(crossing);
  EXPECT_TRUE(ok) << "crossing at " << crossing;
}

TEST(Replan, NearDestinationStillFeasible) {
  const core::VelocityPlanner planner = make_planner(core::SignalPolicy::kIgnoreSignals);
  const core::PlannedProfile rest = planner.replan(Meters(4100.0), MetersPerSecond(10.0), Seconds(900.0));
  EXPECT_NEAR(rest.length(), 100.0, 1e-6);
  EXPECT_DOUBLE_EQ(rest.nodes().back().speed_ms, 0.0);
}

TEST(Replan, RejectsPositionOutsideCorridor) {
  const core::VelocityPlanner planner = make_planner(core::SignalPolicy::kIgnoreSignals);
  EXPECT_THROW(planner.replan(Meters(-5.0), MetersPerSecond(0.0), Seconds(0.0)), std::invalid_argument);
  EXPECT_THROW(planner.replan(Meters(4200.0), MetersPerSecond(0.0), Seconds(0.0)), std::invalid_argument);
}

TEST(Replan, RejectsSpeedsOffTheVelocityGrid) {
  // A negative speed, or one rounding past the top velocity level, used to
  // be clamped onto the grid silently; both are an invalid_argument now.
  const core::VelocityPlanner planner = make_planner(core::SignalPolicy::kIgnoreSignals);
  const double dv = planner.config().resolution.dv_ms;
  const double top = std::floor(planner.corridor().route.max_speed_limit() / dv);
  for (const double bad : {-0.1, -1e-300, (top + 0.5) * dv, (top + 3.0) * dv, 1e308}) {
    EXPECT_THROW((void)planner.speed_level(MetersPerSecond(bad)), std::invalid_argument) << bad;
    EXPECT_THROW((void)planner.replan(Meters(4100.0), MetersPerSecond(bad), Seconds(900.0)),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(planner.speed_level(MetersPerSecond(0.0)), 0);
  EXPECT_EQ(planner.speed_level(MetersPerSecond(-0.0)), 0);
  EXPECT_EQ(planner.speed_level(MetersPerSecond((top + 0.49) * dv)), static_cast<long>(top));
  const core::PlannedProfile rest =
      planner.replan(Meters(2000.0), MetersPerSecond((top + 0.49) * dv), Seconds(900.0));
  EXPECT_DOUBLE_EQ(rest.nodes().back().speed_ms, 0.0);
}

TEST(Replan, RejectsNonFiniteState) {
  // NaN used to pass the position range check and solve from position 0.
  const core::VelocityPlanner planner = make_planner();
  const auto arrivals = demand(765.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    EXPECT_THROW((void)planner.plan(Seconds(bad), arrivals), std::invalid_argument) << bad;
    EXPECT_THROW((void)planner.replan(Meters(bad), MetersPerSecond(10.0), Seconds(700.0), arrivals),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW((void)planner.replan(Meters(2000.0), MetersPerSecond(bad), Seconds(700.0), arrivals),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW((void)planner.replan(Meters(2000.0), MetersPerSecond(10.0), Seconds(bad), arrivals),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Replan, ElementJustAheadIsDropped) {
  // Replanning 5 m before the stop sign: the sign is within 1.5 grid steps
  // and treated as passed; the plan must still be solvable.
  const core::VelocityPlanner planner = make_planner(core::SignalPolicy::kIgnoreSignals);
  const core::PlannedProfile rest = planner.replan(Meters(487.0), MetersPerSecond(2.0), Seconds(100.0));
  EXPECT_GT(rest.length(), 3700.0);
}

TEST(Pilot, CompletesTripWithoutReplansInLightTraffic) {
  const core::VelocityPlanner planner = make_planner();
  sim::Microsim simulator(planner.corridor(), sim::MicrosimConfig{}, demand(400.0));
  simulator.run_until(600.0);
  const auto result = pilot::drive_with_replanning(simulator, planner, demand(200.0));
  EXPECT_TRUE(result.completed);
  EXPECT_LE(result.replans, 1);
  EXPECT_NEAR(result.cycle.distance(), 4200.0, 60.0);
}

TEST(Pilot, ReplansWhenForcedOffSchedule) {
  // Plan against an empty-road belief but drive in heavy traffic: the pilot
  // must notice the drift and replan (and still finish).
  const core::VelocityPlanner planner = make_planner();
  sim::MicrosimConfig cfg;
  cfg.seed = 5;
  sim::Microsim simulator(planner.corridor(), cfg, demand(2200.0));
  simulator.run_until(600.0);
  pilot::PilotConfig pilot_cfg;
  pilot_cfg.replan_drift_s = 3.0;
  const auto result =
      pilot::drive_with_replanning(simulator, planner, demand(100.0), pilot_cfg);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.replans, 1);
}

}  // namespace
}  // namespace evvo
