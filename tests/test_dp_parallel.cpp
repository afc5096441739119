// Solver equivalence under reuse and concurrency: dominance pruning must
// agree with the exhaustive sweep, the US-25 tables and plan are pinned to a
// golden file, workspaces must be reusable across solves, and concurrent
// planner calls (each solving on its own thread) must agree with a lone one.
#include "core/dp_solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/dp_common.hpp"
#include "core/planner.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace evvo::core {
namespace {

/// A DpProblem over a random corridor with queue-aware windows, built the
/// same way VelocityPlanner does (via build_events).
struct Scenario {
  road::Corridor corridor;
  ev::EnergyModel energy;
  std::vector<LayerEvent> events;
  DpProblem problem;

  explicit Scenario(std::uint64_t seed, double depart_time_s = 0.0)
      : corridor(road::make_random_corridor(seed)) {
    PlannerConfig cfg;
    cfg.policy = SignalPolicy::kQueueAware;
    cfg.resolution.horizon_s = 700.0;
    const VelocityPlanner planner(corridor, energy, cfg);
    const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(500.0));
    events = planner.build_events(Seconds(depart_time_s), arrivals);

    problem.route = &corridor.route;
    problem.energy = &energy;
    problem.depart_time = Seconds(depart_time_s);
    problem.resolution = cfg.resolution;
    problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
    problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
    problem.events = events;
  }
};

bool profiles_bit_identical(const PlannedProfile& a, const PlannedProfile& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    if (std::memcmp(&a.nodes()[i], &b.nodes()[i], sizeof(PlanNode)) != 0) return false;
  }
  return true;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, DominancePruningAgreesWithExhaustiveSweep) {
  Scenario scenario(GetParam());
  scenario.problem.dominance_pruning = true;
  const auto pruned = solve_dp(scenario.problem);
  scenario.problem.dominance_pruning = false;
  const auto full = solve_dp(scenario.problem);
  ASSERT_TRUE(pruned.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(pruned->stats.best_cost_mah, full->stats.best_cost_mah);
  EXPECT_TRUE(profiles_bit_identical(pruned->profile, full->profile));
  EXPECT_LE(pruned->stats.relaxations, full->stats.relaxations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(1u, 5u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Golden-checksum regression on the paper's 4.2 km US-25 corridor.
//
// Pins the full DP state-table checksum (every finite-cost cell's cost,
// arrival time, and backpointer) and an FNV-1a hash of the extracted profile
// against a committed golden file. The profile and cost must come out the
// same in both pruning modes, so any change to relaxation order,
// float rounding, pruning, or backtracking shows up as a one-line diff here
// before it can silently shift Fig. 6-8 numbers. Regenerate deliberately with
//   EVVO_UPDATE_GOLDEN=1 ./test_dp_parallel
// and commit the new tests/golden/us25_golden.txt alongside the change that
// explains it.
// ---------------------------------------------------------------------------

std::uint64_t hash_profile(const PlannedProfile& profile) {
  detail::TableHasher hasher;
  const auto mix_double = [&hasher](double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    hasher.mix_u64(bits);
  };
  for (const PlanNode& node : profile.nodes()) {
    mix_double(node.position_m);
    mix_double(node.speed_ms);
    mix_double(node.time_s);
    mix_double(node.energy_mah);
  }
  return hasher.value();
}

struct Us25Golden {
  std::uint64_t unpruned_checksum = 0;
  std::uint64_t pruned_checksum = 0;
  std::uint64_t profile_hash = 0;
  std::uint64_t best_cost_bits = 0;
};

std::string golden_path() { return std::string(EVVO_GOLDEN_DIR) + "/us25_golden.txt"; }

std::optional<Us25Golden> read_golden() {
  std::ifstream in(golden_path());
  if (!in) return std::nullopt;
  Us25Golden golden;
  std::string key;
  while (in >> key) {
    if (key == "us25-golden") {
      std::string version;
      in >> version;
    } else if (key == "unpruned_checksum") {
      in >> std::hex >> golden.unpruned_checksum >> std::dec;
    } else if (key == "pruned_checksum") {
      in >> std::hex >> golden.pruned_checksum >> std::dec;
    } else if (key == "profile_hash") {
      in >> std::hex >> golden.profile_hash >> std::dec;
    } else if (key == "best_cost_bits") {
      in >> std::hex >> golden.best_cost_bits >> std::dec;
    } else {
      return std::nullopt;
    }
  }
  return golden;
}

void write_golden(const Us25Golden& golden) {
  std::ofstream out(golden_path());
  out << "us25-golden v1\n" << std::hex;
  out << "unpruned_checksum " << golden.unpruned_checksum << "\n";
  out << "pruned_checksum " << golden.pruned_checksum << "\n";
  out << "profile_hash " << golden.profile_hash << "\n";
  out << "best_cost_bits " << golden.best_cost_bits << "\n";
}

TEST(Us25GoldenChecksum, TablesAndProfilePinnedAcrossPruningModes) {
  const road::Corridor corridor = road::make_us25_corridor();
  ev::EnergyModel energy;
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  cfg.resolution.ds_m = 15.0;
  cfg.resolution.dv_ms = 1.0;
  cfg.resolution.dt_s = 1.0;
  cfg.resolution.horizon_s = 480.0;
  const VelocityPlanner planner(corridor, energy, cfg);
  const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(600.0));

  DpProblem problem;
  problem.route = &corridor.route;
  problem.energy = &energy;
  problem.depart_time = Seconds(60.0);
  problem.resolution = cfg.resolution;
  problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
  problem.events = planner.build_events(Seconds(problem.depart_time.value()), arrivals);
  problem.checksum_tables = true;

  Us25Golden computed;
  std::optional<PlannedProfile> first_profile;
  for (const bool pruning : {false, true}) {
    problem.dominance_pruning = pruning;
    const auto solution = solve_dp(problem);
    ASSERT_TRUE(solution.has_value()) << "pruning=" << pruning;
    (pruning ? computed.pruned_checksum : computed.unpruned_checksum) =
        solution->stats.table_checksum;

    // The extracted profile and cost match across pruning modes.
    if (!first_profile) {
      first_profile = solution->profile;
      computed.profile_hash = hash_profile(solution->profile);
      std::memcpy(&computed.best_cost_bits, &solution->stats.best_cost_mah,
                  sizeof computed.best_cost_bits);
    } else {
      EXPECT_TRUE(profiles_bit_identical(*first_profile, solution->profile))
          << "pruning=" << pruning;
      std::uint64_t cost_bits = 0;
      std::memcpy(&cost_bits, &solution->stats.best_cost_mah, sizeof cost_bits);
      EXPECT_EQ(cost_bits, computed.best_cost_bits) << "pruning=" << pruning;
    }
  }

  if (std::getenv("EVVO_UPDATE_GOLDEN") != nullptr) {
    write_golden(computed);
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }
  const std::optional<Us25Golden> golden = read_golden();
  ASSERT_TRUE(golden.has_value()) << "missing/unreadable " << golden_path()
                                  << " (regenerate with EVVO_UPDATE_GOLDEN=1)";
  EXPECT_EQ(computed.unpruned_checksum, golden->unpruned_checksum);
  EXPECT_EQ(computed.pruned_checksum, golden->pruned_checksum);
  EXPECT_EQ(computed.profile_hash, golden->profile_hash);
  EXPECT_EQ(computed.best_cost_bits, golden->best_cost_bits);
}

TEST(DpWorkspace, ReuseAcrossSolvesAndProblems) {
  DpWorkspace workspace;
  Scenario first(3), second(8, 120.0);

  const auto a1 = solve_dp(first.problem);
  const auto b1 = solve_dp(second.problem);
  ASSERT_TRUE(a1 && b1);

  // Interleave solves on one workspace: the generation-stamped reset and the
  // model-table cache must never leak state between problems.
  for (int round = 0; round < 3; ++round) {
    const auto a2 = solve_dp(first.problem, workspace);
    ASSERT_TRUE(a2.has_value());
    EXPECT_TRUE(profiles_bit_identical(a1->profile, a2->profile)) << "round " << round;
    const auto b2 = solve_dp(second.problem, workspace);
    ASSERT_TRUE(b2.has_value());
    EXPECT_TRUE(profiles_bit_identical(b1->profile, b2->profile)) << "round " << round;
  }
  EXPECT_GT(workspace.state_bytes(), 0u);
}

TEST(DpWorkspace, ConcurrentPlannerCallsAgree) {
  // VelocityPlanner checks a workspace out per call; hammer one planner from
  // several threads and require every result to equal the serial answer.
  Scenario scenario(2);
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  cfg.resolution.horizon_s = 700.0;
  const VelocityPlanner planner(scenario.corridor, scenario.energy, cfg);
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
