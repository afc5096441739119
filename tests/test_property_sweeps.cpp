// Cross-module property sweeps: invariants that must hold over wide parameter
// ranges, not just the experimental defaults.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "core/dp_solver.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"
#include "sim/microsim.hpp"
#include "traffic/queue_model.hpp"

namespace evvo {
namespace {

// --- energy model ------------------------------------------------------

/// Steeper climbs always cost more, at every speed.
class GradeSweep : public ::testing::TestWithParam<double> {};
TEST_P(GradeSweep, CurrentMonotoneInGrade) {
  const ev::EnergyModel model;
  const double v = GetParam();
  double prev = -1e18;
  for (double theta = -0.06; theta <= 0.06; theta += 0.01) {
    const double amps = model.traction_current_a(MetersPerSecond(v), MetersPerSecondSquared(0.0), theta);
    EXPECT_GT(amps, prev) << "v=" << v << " theta=" << theta;
    prev = amps;
  }
}
INSTANTIATE_TEST_SUITE_P(Speeds, GradeSweep, ::testing::Values(3.0, 8.0, 14.0, 20.0, 26.0));

/// Under the paper's Eq. (3) convention with full regen, the traction part of
/// an accelerate-then-mirror-brake pair cancels exactly at every speed.
class SymmetrySweep : public ::testing::TestWithParam<double> {};
TEST_P(SymmetrySweep, PaperRegenIsSymmetricInForce) {
  const ev::EnergyModel model;  // kPaperEq3, regen 1.0
  const double v = GetParam();
  const double cruise = model.traction_current_a(MetersPerSecond(v), MetersPerSecondSquared(0.0));
  for (double a = 0.25; a <= 2.0; a += 0.25) {
    const double up = model.traction_current_a(MetersPerSecond(v), MetersPerSecondSquared(a)) - cruise;
    const double down = model.traction_current_a(MetersPerSecond(v), MetersPerSecondSquared(-a)) - cruise;
    EXPECT_NEAR(up + down, 0.0, 1e-9) << "v=" << v << " a=" << a;
  }
}
INSTANTIATE_TEST_SUITE_P(Speeds, SymmetrySweep, ::testing::Values(5.0, 10.0, 15.0, 22.0));

// --- queue model --------------------------------------------------------

struct PhaseCase {
  double red, green;
};
// Readable ctest names instead of the struct's raw bytes.
void PrintTo(const PhaseCase& c, std::ostream* os) {
  *os << "red=" << c.red << " green=" << c.green;
}

/// Clear times always fall inside the green phase when they exist, for a
/// spread of signal timings and demands.
class PhaseSweep : public ::testing::TestWithParam<PhaseCase> {};
TEST_P(PhaseSweep, ClearTimeInsideGreenWhenFeasible) {
  const auto [red, green] = GetParam();
  const traffic::CyclePhases phases{red, green};
  const traffic::QueueModel model{traffic::VmParams{}};
  for (double rate = 0.02; rate <= 0.6; rate += 0.06) {
    const auto clear = model.clear_time(phases, VehiclesPerSecond(rate));
    if (!clear.has_value()) continue;
    EXPECT_GE(*clear, red) << "red=" << red << " green=" << green << " rate=" << rate;
    EXPECT_LE(*clear, red + green + 1e-9);
    // Queue really is zero there and stays zero to the cycle end.
    EXPECT_NEAR(model.queue_length_m(Seconds(*clear), phases, VehiclesPerSecond(rate)), 0.0, 1e-6);
    EXPECT_NEAR(model.queue_length_m(Seconds(red + green), phases, VehiclesPerSecond(rate)), 0.0, 1e-6);
  }
}
INSTANTIATE_TEST_SUITE_P(Phases, PhaseSweep,
                         ::testing::Values(PhaseCase{15.0, 45.0}, PhaseCase{30.0, 30.0},
                                           PhaseCase{45.0, 15.0}, PhaseCase{20.0, 50.0},
                                           PhaseCase{60.0, 60.0}));

TEST(QueueDerivative, MatchesArrivalMinusDischargeBeforeClearance) {
  // dL/dt = d * V_in - v_platoon(t) while the queue persists (Eq. 6 in
  // differential form). Numeric check across the cycle.
  const traffic::VmParams params{};
  const traffic::QueueModel model{params};
  const traffic::VmModel vm{params};
  const traffic::CyclePhases phases{30.0, 30.0};
  const double rate = 0.425;
  const auto clear = model.clear_time(phases, VehiclesPerSecond(rate));
  ASSERT_TRUE(clear.has_value());
  const double h = 1e-4;
  for (double t = 1.0; t < *clear - 0.5; t += 2.3) {
    const double numeric = (model.queue_length_m(Seconds(t + h), phases, VehiclesPerSecond(rate)) -
                            model.queue_length_m(Seconds(t - h), phases, VehiclesPerSecond(rate))) /
                           (2.0 * h);
    const double analytic = params.spacing_m * rate - vm.platoon_speed(t, phases);
    EXPECT_NEAR(numeric, analytic, 0.05) << "t=" << t;
  }
}

// --- DP solver ----------------------------------------------------------

/// Feasible, boundary-correct plans across corridor lengths.
class LengthSweep : public ::testing::TestWithParam<double> {};
TEST_P(LengthSweep, FlatTripFeasibleAndBounded) {
  const double length = GetParam();
  const road::Route route({{0.0, length, 20.0, 0.0, 0.0}});
  const ev::EnergyModel energy;
  core::DpProblem p;
  p.route = &route;
  p.energy = &energy;
  p.resolution = core::DpResolution{10.0, 0.5, 1.0, length / 6.0 + 120.0};
  p.time_weight_mah_per_s = 4.0;
  const auto solution = core::solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  EXPECT_NEAR(solution->profile.length(), length, 1e-6);
  EXPECT_DOUBLE_EQ(solution->profile.nodes().front().speed_ms, 0.0);
  EXPECT_DOUBLE_EQ(solution->profile.nodes().back().speed_ms, 0.0);
  // Energy scales superlinearly-but-sanely with distance.
  EXPECT_GT(solution->profile.total_energy_mah(), length * 0.1);
  EXPECT_LT(solution->profile.total_energy_mah(), length * 1.5);
}
INSTANTIATE_TEST_SUITE_P(Lengths, LengthSweep, ::testing::Values(200.0, 800.0, 2000.0, 5000.0));

/// Longer trips never get cheaper (plan-energy monotone in distance).
TEST(DpScaling, EnergyMonotoneInDistance) {
  const ev::EnergyModel energy;
  double prev = 0.0;
  for (const double length : {500.0, 1000.0, 2000.0, 4000.0}) {
    const road::Route route({{0.0, length, 20.0, 0.0, 0.0}});
    core::DpProblem p;
    p.route = &route;
    p.energy = &energy;
    p.resolution = core::DpResolution{10.0, 0.5, 1.0, 500.0};
    p.time_weight_mah_per_s = 4.0;
    const auto solution = core::solve_dp(p);
    ASSERT_TRUE(solution.has_value());
    EXPECT_GT(solution->profile.total_energy_mah(), prev);
    prev = solution->profile.total_energy_mah();
  }
}

// --- microsim -----------------------------------------------------------

/// Collision-freedom and conservation across seeds and both car-following
/// models, at demanding traffic.
struct SimCase {
  std::uint64_t seed;
  sim::CarFollowing model;
};
// Without this, gtest prints SimCase as raw bytes, padding included, and the
// discovered ctest names would change from run to run.
void PrintTo(const SimCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " model=" << (c.model == sim::CarFollowing::kKrauss ? "krauss" : "idm");
}
class SimSweep : public ::testing::TestWithParam<SimCase> {};
TEST_P(SimSweep, SafeAndConservative) {
  const auto [seed, model] = GetParam();
  sim::MicrosimConfig cfg;
  cfg.seed = seed;
  cfg.car_following = model;
  sim::Microsim simulator(road::make_us25_corridor(), cfg,
                          std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(2200.0)));
  for (int i = 0; i < 1200; ++i) {
    simulator.step();
    ASSERT_FALSE(simulator.has_collision()) << "seed " << seed << " t=" << simulator.time();
  }
  const auto& stats = simulator.stats();
  EXPECT_EQ(stats.inserted, stats.removed_at_exit + stats.turned_off +
                                static_cast<long>(simulator.vehicles().size()));
}
INSTANTIATE_TEST_SUITE_P(
    Cases, SimSweep,
    ::testing::Values(SimCase{2, sim::CarFollowing::kKrauss}, SimCase{19, sim::CarFollowing::kKrauss},
                      SimCase{71, sim::CarFollowing::kKrauss}, SimCase{2, sim::CarFollowing::kIdm},
                      SimCase{19, sim::CarFollowing::kIdm}, SimCase{71, sim::CarFollowing::kIdm}));

/// Vehicle speeds never exceed the posted limit by more than the configured
/// driver tolerance, whatever the seed.
class SpeedLimitSweep : public ::testing::TestWithParam<std::uint64_t> {};
TEST_P(SpeedLimitSweep, BackgroundRespectsLimits) {
  sim::MicrosimConfig cfg;
  cfg.seed = GetParam();
  const double tolerance = 1.08;  // insertion-time speed-factor jitter
  sim::Microsim simulator(road::make_us25_corridor(), cfg,
                          std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(1000.0)));
  for (int i = 0; i < 1200; ++i) {
    simulator.step();
    for (const auto& v : simulator.vehicles()) {
      const double limit =
          simulator.corridor().route.speed_limit_at(std::max(0.0, v.position_m));
      EXPECT_LE(v.speed_ms, limit * tolerance * v.driver.speed_factor + 0.5);
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, SpeedLimitSweep, ::testing::Values(3u, 23u, 59u));

}  // namespace
}  // namespace evvo
