// Queue-Length model tests: Eq. (6) piecewise dynamics, the zero-queue time
// t*, saturation/residual behaviour, and ordering against the baseline model.
#include "traffic/queue_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "common/units.hpp"

namespace evvo::traffic {
namespace {

CyclePhases paper_cycle() { return CyclePhases{30.0, 30.0}; }
constexpr double kPaperArrival_veh_s = 1530.0 / 3600.0;  // paper's probed V_in

QueueModel ours() { return QueueModel(VmParams{}, DischargeModel::kVmAcceleration); }
QueueModel baseline() { return QueueModel(VmParams{}, DischargeModel::kInstantMinSpeed); }

TEST(QueueModel, GrowsLinearlyDuringRed) {
  const QueueModel q = ours();
  const CyclePhases c = paper_cycle();
  // Eq. (6)(i): L = d * V_in * t.
  EXPECT_NEAR(q.queue_length_m(Seconds(10.0), c, VehiclesPerSecond(kPaperArrival_veh_s)), 8.5 * kPaperArrival_veh_s * 10.0, 1e-9);
  EXPECT_NEAR(q.queue_length_m(Seconds(30.0), c, VehiclesPerSecond(kPaperArrival_veh_s)), 8.5 * kPaperArrival_veh_s * 30.0, 1e-9);
}

TEST(QueueModel, KeepsGrowingEarlyGreenWhileplatoonSlow) {
  // Eq. (6)(ii): just after green onset the discharge ramp is quadratic, so
  // with the paper's arrival rate the queue still grows briefly.
  const QueueModel q = ours();
  const CyclePhases c = paper_cycle();
  EXPECT_GT(q.queue_length_m(Seconds(31.0), c, VehiclesPerSecond(kPaperArrival_veh_s)),
            q.queue_length_m(Seconds(30.0), c, VehiclesPerSecond(kPaperArrival_veh_s)));
}

TEST(QueueModel, BaselineShrinksImmediatelyAtGreen) {
  const QueueModel q = baseline();
  const CyclePhases c = paper_cycle();
  EXPECT_LT(q.queue_length_m(Seconds(31.0), c, VehiclesPerSecond(kPaperArrival_veh_s)),
            q.queue_length_m(Seconds(30.0), c, VehiclesPerSecond(kPaperArrival_veh_s)));
}

TEST(QueueModel, ClearsWithinPaperCycle) {
  const QueueModel q = ours();
  const auto clear = q.clear_time(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s));
  ASSERT_TRUE(clear.has_value());
  EXPECT_GT(*clear, 30.0);   // after green onset
  EXPECT_LT(*clear, 60.0);   // within the cycle
  // The queue is empty from t* to the cycle end (Eq. 6 (iv)).
  EXPECT_DOUBLE_EQ(q.queue_length_m(Seconds(*clear + 1.0), paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s)), 0.0);
  EXPECT_DOUBLE_EQ(q.queue_length_m(Seconds(59.9), paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s)), 0.0);
}

TEST(QueueModel, OurClearTimeIsLaterThanBaselines) {
  // Modeling the acceleration phase delays t* (the paper's Fig. 5 claim).
  const auto t_ours = ours().clear_time(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s));
  const auto t_base = baseline().clear_time(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s));
  ASSERT_TRUE(t_ours.has_value());
  ASSERT_TRUE(t_base.has_value());
  EXPECT_GT(*t_ours, *t_base);
}

TEST(QueueModel, ClearTimeSolvesEq6) {
  const QueueModel q = ours();
  const CyclePhases c = paper_cycle();
  const auto t = q.clear_time(c, VehiclesPerSecond(kPaperArrival_veh_s));
  ASSERT_TRUE(t.has_value());
  // Just before t*, the queue is positive; just after, zero.
  EXPECT_GT(q.queue_length_m(Seconds(*t - 0.5), c, VehiclesPerSecond(kPaperArrival_veh_s)), 0.0);
  EXPECT_NEAR(q.queue_length_m(Seconds(*t), c, VehiclesPerSecond(kPaperArrival_veh_s)), 0.0, 1e-6);
}

TEST(QueueModel, EmptyRoadClearsAtGreenOnset) {
  const QueueModel q = ours();
  const auto t = q.clear_time(paper_cycle(), VehiclesPerSecond(0.0), Meters(0.0));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 30.0);
}

TEST(QueueModel, InitialQueueDelaysClearance) {
  const QueueModel q = ours();
  const auto base = q.clear_time(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s), Meters(0.0));
  const auto loaded = q.clear_time(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s), Meters(40.0));
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_GT(*loaded, *base);
}

TEST(QueueModel, OversaturatedNeverClears) {
  // Arrivals above the discharge capacity v_min/d can never clear.
  const QueueModel q = ours();
  const double saturated = VmParams{}.min_speed_ms / VmParams{}.spacing_m + 0.1;
  EXPECT_FALSE(q.clear_time(paper_cycle(), VehiclesPerSecond(saturated)).has_value());
  EXPECT_GT(q.residual_queue_m(paper_cycle(), VehiclesPerSecond(saturated)), 0.0);
}

TEST(QueueModel, HeavyButClearableArrivalMayClearInPhaseIii) {
  const QueueModel q = ours();
  const double heavy = 0.6;  // veh/s: clears late in the green, after the ramp
  const auto t = q.clear_time(paper_cycle(), VehiclesPerSecond(heavy));
  ASSERT_TRUE(t.has_value());
  EXPECT_GT(*t, 30.0 + 13.4 / 2.5);  // clears only after full acceleration
}

TEST(QueueModel, ResidualZeroWhenCleared) {
  EXPECT_DOUBLE_EQ(ours().residual_queue_m(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s)), 0.0);
}

TEST(QueueModel, ResidualCarriesAcrossCycles) {
  const QueueModel q = ours();
  const double saturated = 1.7;  // veh/s
  double residual = 0.0;
  double prev = -1.0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    residual = q.residual_queue_m(paper_cycle(), VehiclesPerSecond(saturated), Meters(residual));
    EXPECT_GT(residual, prev);  // spillover grows cycle over cycle
    prev = residual;
  }
}

TEST(QueueModel, QueueVehiclesIsLengthOverSpacing) {
  const QueueModel q = ours();
  const double len = q.queue_length_m(Seconds(20.0), paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s));
  EXPECT_NEAR(q.queue_vehicles(Seconds(20.0), paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s)), len / 8.5, 1e-12);
}

TEST(QueueModel, ProfileSamplesMatchPointQueries) {
  const QueueModel q = ours();
  const auto profile = q.queue_profile(paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s), Seconds(1.0));
  ASSERT_EQ(profile.size(), 61u);
  EXPECT_NEAR(profile[20], q.queue_length_m(Seconds(20.0), paper_cycle(), VehiclesPerSecond(kPaperArrival_veh_s)), 1e-12);
  EXPECT_DOUBLE_EQ(profile.back(), 0.0);
}

TEST(QueueModel, InputValidation) {
  const QueueModel q = ours();
  EXPECT_THROW(q.queue_length_m(Seconds(1.0), paper_cycle(), VehiclesPerSecond(-0.1)), std::invalid_argument);
  EXPECT_THROW(q.queue_length_m(Seconds(1.0), paper_cycle(),
                                VehiclesPerSecond(std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_THROW(q.queue_length_m(Seconds(1.0), paper_cycle(), VehiclesPerSecond(0.1), Meters(-5.0)), std::invalid_argument);
  EXPECT_THROW(q.queue_profile(paper_cycle(), VehiclesPerSecond(0.1), Seconds(0.0)), std::invalid_argument);
}

/// Property sweep over arrival rates: higher arrivals produce a later (or
/// absent) clear time and a pointwise larger queue, for both discharge models.
struct RateCase {
  double low, high;
  DischargeModel model;
};
// Without this, gtest prints RateCase as raw bytes, padding included, and the
// discovered ctest names would change from build to build.
void PrintTo(const RateCase& c, std::ostream* os) {
  *os << "low=" << c.low << " high=" << c.high << " model="
      << (c.model == DischargeModel::kVmAcceleration ? "vm" : "instant");
}
class ArrivalSweep : public ::testing::TestWithParam<RateCase> {};
TEST_P(ArrivalSweep, MonotoneInArrivalRate) {
  const auto p = GetParam();
  const QueueModel q(VmParams{}, p.model);
  const CyclePhases c = paper_cycle();
  for (double t = 0.0; t <= 60.0; t += 2.5) {
    EXPECT_LE(q.queue_length_m(Seconds(t), c, VehiclesPerSecond(p.low)), q.queue_length_m(Seconds(t), c, VehiclesPerSecond(p.high)) + 1e-9);
  }
  const auto t_low = q.clear_time(c, VehiclesPerSecond(p.low));
  const auto t_high = q.clear_time(c, VehiclesPerSecond(p.high));
  if (t_high.has_value()) {
    ASSERT_TRUE(t_low.has_value());
    EXPECT_LE(*t_low, *t_high + 1e-9);
  }
}
INSTANTIATE_TEST_SUITE_P(
    Rates, ArrivalSweep,
    ::testing::Values(RateCase{0.05, 0.2, DischargeModel::kVmAcceleration},
                      RateCase{0.2, 0.425, DischargeModel::kVmAcceleration},
                      RateCase{0.425, 1.0, DischargeModel::kVmAcceleration},
                      RateCase{1.0, 2.0, DischargeModel::kVmAcceleration},
                      RateCase{0.05, 0.425, DischargeModel::kInstantMinSpeed},
                      RateCase{0.425, 2.0, DischargeModel::kInstantMinSpeed}));

}  // namespace
}  // namespace evvo::traffic
