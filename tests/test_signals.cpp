#include "road/signals.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

namespace evvo::road {
namespace {

// The paper's probed cycle: red [0, 30), green [30, 60).
TrafficLight paper_light(double offset = 0.0) { return TrafficLight(1820.0, 30.0, 30.0, offset); }

TEST(TrafficLight, PhaseLayoutRedThenGreen) {
  const TrafficLight l = paper_light();
  EXPECT_TRUE(l.is_red(0.0));
  EXPECT_TRUE(l.is_red(29.9));
  EXPECT_TRUE(l.is_green(30.0));
  EXPECT_TRUE(l.is_green(59.9));
  EXPECT_TRUE(l.is_red(60.0));  // next cycle
}

TEST(TrafficLight, PeriodicityProperty) {
  const TrafficLight l = paper_light();
  for (double t = 0.0; t < 60.0; t += 0.7) {
    EXPECT_EQ(l.is_green(t), l.is_green(t + 60.0));
    EXPECT_EQ(l.is_green(t), l.is_green(t + 600.0));
  }
}

TEST(TrafficLight, OffsetShiftsPhases) {
  const TrafficLight l = paper_light(10.0);
  EXPECT_TRUE(l.is_red(10.0));
  EXPECT_TRUE(l.is_green(40.0));
  EXPECT_TRUE(l.is_green(5.0));  // 5 s is 55 s into the previous cycle: green
}

TEST(TrafficLight, NegativeTimesHandled) {
  const TrafficLight l = paper_light();
  EXPECT_TRUE(l.is_green(-15.0));  // -15 == 45 into the previous cycle
  EXPECT_TRUE(l.is_red(-45.0));
  EXPECT_NEAR(l.time_into_cycle(-15.0), 45.0, 1e-9);
}

TEST(TrafficLight, CycleStart) {
  const TrafficLight l = paper_light();
  EXPECT_DOUBLE_EQ(l.cycle_start(75.0), 60.0);
  EXPECT_DOUBLE_EQ(l.cycle_start(60.0), 60.0);
  const TrafficLight shifted = paper_light(10.0);
  EXPECT_DOUBLE_EQ(shifted.cycle_start(75.0), 70.0);
}

TEST(TrafficLight, NextGreen) {
  const TrafficLight l = paper_light();
  EXPECT_DOUBLE_EQ(l.next_green(10.0), 30.0);
  EXPECT_DOUBLE_EQ(l.next_green(45.0), 45.0);  // already green
  EXPECT_DOUBLE_EQ(l.next_green(60.0), 90.0);
}

TEST(TrafficLight, GreenWindowsCoverAndClip) {
  const TrafficLight l = paper_light();
  const auto windows = l.green_windows(0.0, 180.0);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[0].start_s, 30.0);
  EXPECT_DOUBLE_EQ(windows[0].end_s, 60.0);
  EXPECT_DOUBLE_EQ(windows[2].start_s, 150.0);
  // Clipped query starting mid-green:
  const auto clipped = l.green_windows(45.0, 55.0);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_DOUBLE_EQ(clipped[0].start_s, 45.0);
  EXPECT_DOUBLE_EQ(clipped[0].end_s, 55.0);
}

TEST(TrafficLight, GreenWindowsEmptyForDegenerateRange) {
  EXPECT_TRUE(paper_light().green_windows(50.0, 50.0).empty());
  EXPECT_TRUE(paper_light().green_windows(60.0, 10.0).empty());
}

TEST(TrafficLight, GreenWindowsTotalDurationMatchesDutyCycle) {
  const TrafficLight l = paper_light();
  double total = 0.0;
  for (const auto& w : l.green_windows(0.0, 600.0)) total += w.duration();
  EXPECT_NEAR(total, 300.0, 1e-9);  // 50% duty over 600 s
}

TEST(TrafficLight, ValidationRejectsBadDurations) {
  EXPECT_THROW(TrafficLight(100.0, 0.0, 30.0), std::invalid_argument);
  EXPECT_THROW(TrafficLight(100.0, 30.0, -1.0), std::invalid_argument);
  EXPECT_THROW(TrafficLight(-5.0, 30.0, 30.0), std::invalid_argument);
}

TEST(TimeWindow, ContainsHalfOpen) {
  const TimeWindow w{10.0, 20.0};
  EXPECT_TRUE(w.contains(10.0));
  EXPECT_TRUE(w.contains(19.999));
  EXPECT_FALSE(w.contains(20.0));
  EXPECT_FALSE(w.contains(9.999));
  EXPECT_DOUBLE_EQ(w.duration(), 10.0);
}

/// Property sweep across asymmetric cycles: is_green(t) must match window
/// membership for all t.
struct CycleCase {
  double red, green, offset;
};
// Readable ctest names instead of the struct's raw bytes.
void PrintTo(const CycleCase& c, std::ostream* os) {
  *os << "red=" << c.red << " green=" << c.green << " offset=" << c.offset;
}
class CycleSweep : public ::testing::TestWithParam<CycleCase> {};
TEST_P(CycleSweep, GreenWindowsAgreeWithIsGreen) {
  const auto [red, green, offset] = GetParam();
  const TrafficLight l(500.0, red, green, offset);
  const auto windows = l.green_windows(0.0, 400.0);
  for (double t = 0.0; t < 400.0; t += 0.37) {
    bool inside = false;
    for (const auto& w : windows) inside |= w.contains(t);
    EXPECT_EQ(inside, l.is_green(t)) << "t=" << t;
  }
}
INSTANTIATE_TEST_SUITE_P(Cycles, CycleSweep,
                         ::testing::Values(CycleCase{30.0, 30.0, 0.0}, CycleCase{45.0, 15.0, 7.0},
                                           CycleCase{20.0, 40.0, -13.0}, CycleCase{55.0, 5.0, 33.0},
                                           CycleCase{10.0, 70.0, 100.0}));

}  // namespace
}  // namespace evvo::road
