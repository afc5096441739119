// Concurrent planner calls, each solving on its own thread with a workspace
// from the planner's shared pool, must agree with a lone call. The
// single-threaded solver checks (pruning equivalence, golden checksums,
// workspace reuse) live in test_dp_solver.cpp, outside the TSan leg.
#include "core/dp_solver.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace evvo::core {
namespace {

bool profiles_bit_identical(const PlannedProfile& a, const PlannedProfile& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    if (std::memcmp(&a.nodes()[i], &b.nodes()[i], sizeof(PlanNode)) != 0) return false;
  }
  return true;
}

TEST(DpWorkspace, ConcurrentPlannerCallsAgree) {
  // VelocityPlanner checks a workspace out per call; hammer one planner from
  // several threads and require every result to equal the serial answer.
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  cfg.resolution.horizon_s = 700.0;
  const VelocityPlanner planner(road::make_random_corridor(2), ev::EnergyModel{}, cfg);
  const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(500.0));
  const PlannedProfile reference = planner.plan(Seconds(0.0), arrivals);

  constexpr int kThreads = 4;
  std::vector<std::optional<PlannedProfile>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = planner.plan(Seconds(0.0), arrivals); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].has_value());
    EXPECT_TRUE(profiles_bit_identical(reference, *results[t])) << "thread " << t;
  }
}

}  // namespace
}  // namespace evvo::core
