// Time-expanded DP solver: feasibility, constraint satisfaction (Eq. 7),
// signal-window targeting (Eq. 11-12), objective monotonicity, kernel and
// pruning equivalence, golden US-25 checksums, and workspace reuse.
#include "core/dp_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "core/dp_batch.hpp"
#include "core/dp_common.hpp"
#include "core/planner.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"
#include "road/route.hpp"

namespace evvo::core {
namespace {

road::Route flat_route(double length, double limit = 20.0) {
  return road::Route({{0.0, length, limit, 0.0, 0.0}});
}

DpProblem base_problem(const road::Route& route, const ev::EnergyModel& energy) {
  DpProblem p;
  p.route = &route;
  p.energy = &energy;
  p.resolution = DpResolution{10.0, 0.5, 1.0, 200.0};
  p.time_weight_mah_per_s = 2.0;
  return p;
}

void check_kinematics(const PlannedProfile& profile, const road::Route& route,
                      const ev::VehicleParams& vp) {
  const auto& nodes = profile.nodes();
  EXPECT_DOUBLE_EQ(nodes.front().speed_ms, 0.0);
  EXPECT_DOUBLE_EQ(nodes.back().speed_ms, 0.0);
  EXPECT_DOUBLE_EQ(nodes.front().position_m, 0.0);
  EXPECT_NEAR(nodes.back().position_m, route.length(), 1e-6);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const double ds = nodes[i].position_m - nodes[i - 1].position_m;
    EXPECT_GE(nodes[i].time_s, nodes[i - 1].time_s - 1e-9);
    EXPECT_LE(nodes[i].speed_ms, route.speed_limit_at(nodes[i].position_m) + 1e-6);
    if (ds > 1e-9) {
      const double a = (nodes[i].speed_ms * nodes[i].speed_ms -
                        nodes[i - 1].speed_ms * nodes[i - 1].speed_ms) /
                       (2.0 * ds);
      EXPECT_GE(a, vp.min_acceleration - 1e-6);
      EXPECT_LE(a, vp.max_acceleration + 1e-6);
    }
  }
}

TEST(DpSolver, ValidatesInputs) {
  DpProblem p;
  EXPECT_THROW(solve_dp(p), std::invalid_argument);
  const road::Route route = flat_route(500.0);
  const ev::EnergyModel energy;
  p = base_problem(route, energy);
  p.resolution.ds_m = 0.0;
  EXPECT_THROW(solve_dp(p), std::invalid_argument);
}

TEST(DpSolver, RejectsNonFiniteDepartureTime) {
  const road::Route route = flat_route(500.0);
  const ev::EnergyModel energy;
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    DpProblem p = base_problem(route, energy);
    p.depart_time = Seconds(t);
    EXPECT_THROW(solve_dp(p), std::invalid_argument) << t;
  }
}

TEST(DpSolver, EdgeTableBinsNearlyEveryVectorChunkOfAColdUs25Solve) {
  // The edge-table route of the vector relaxation is bit-identical to the
  // exact route, so identity tests pass whether or not it ever fires. This
  // pins that it does: with a vector kernel selected, a cold US-25 solve
  // bins at least 90% of its vector chunks through it, and a scalar solve
  // bins none. Chunks are counted at the selected kernel's width (8 lanes
  // for the AVX2 kernel, whatever the build's baseline backend).
  const road::Corridor corridor = road::make_us25_corridor();
  const ev::EnergyModel energy;
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  const VelocityPlanner planner(corridor, energy, cfg);
  DpProblem problem;
  problem.route = &corridor.route;
  problem.energy = &energy;
  problem.depart_time = Seconds(60.0);
  problem.resolution = cfg.resolution;
  problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
  problem.events = planner.build_events(
      problem.depart_time, std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));

  const telemetry::Counter& fast = telemetry::counter("dp.relax.fast_chunks");
  const telemetry::Counter& capacity = telemetry::counter("dp.simd_lanes_capacity");
  const detail::DpKernelInfo selected = detail::dp_kernels().back();
  const auto lanes = static_cast<long>(selected.lanes);
  for (const bool scalar : {false, true}) {
    const long fast0 = fast.value();
    const long capacity0 = capacity.value();
    DpWorkspace workspace;
    ASSERT_TRUE((scalar ? detail::solve_dp_with_kernel(problem, workspace,
                                                       detail::DpKernel::kScalar)
                        : solve_dp(problem, workspace))
                    .has_value());
    const long fast_chunks = fast.value() - fast0;
    const long chunks = (capacity.value() - capacity0) / lanes;
    if (selected.kernel != detail::DpKernel::kScalar && !scalar) {
      ASSERT_GT(chunks, 0);
      EXPECT_GE(static_cast<double>(fast_chunks), 0.9 * static_cast<double>(chunks))
          << fast_chunks << " of " << chunks << " chunks";
    } else {
      EXPECT_EQ(fast_chunks, 0) << "scalar=" << scalar;
    }
  }
}

bool profiles_bit_identical(const PlannedProfile& a, const PlannedProfile& b) {
  const auto& na = a.nodes();
  const auto& nb = b.nodes();
  return na.size() == nb.size() &&
         (na.empty() || std::memcmp(na.data(), nb.data(), na.size() * sizeof(PlanNode)) == 0);
}

bool same_stats(const DpStats& a, const DpStats& b) {
  return a.layers == b.layers && a.velocity_levels == b.velocity_levels &&
         a.time_bins == b.time_bins && a.relaxations == b.relaxations &&
         a.frontier_states == b.frontier_states && a.pruned_states == b.pruned_states &&
         std::memcmp(&a.best_cost_mah, &b.best_cost_mah, sizeof a.best_cost_mah) == 0 &&
         a.table_checksum == b.table_checksum;
}

TEST(DpSolver, EveryKernelSolvesTheUs25GoldenProblemIdentically) {
  // The golden-checksum problem of Us25GoldenChecksum, solved once per
  // relaxation kernel the build and CPU offer (scalar, the baseline vector
  // backend, and the run-time dispatched AVX2 copy where it exists), in both
  // pruning modes: table checksum, every DpStats field, the best-cost bits
  // and the extracted profile must all agree with the scalar scan.
  const road::Corridor corridor = road::make_us25_corridor();
  const ev::EnergyModel energy;
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kQueueAware;
  cfg.resolution.ds_m = 15.0;
  cfg.resolution.dv_ms = 1.0;
  cfg.resolution.dt_s = 1.0;
  cfg.resolution.horizon_s = 480.0;
  const VelocityPlanner planner(corridor, energy, cfg);
  DpProblem problem;
  problem.route = &corridor.route;
  problem.energy = &energy;
  problem.depart_time = Seconds(60.0);
  problem.resolution = cfg.resolution;
  problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
  problem.events = planner.build_events(
      problem.depart_time, std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(600.0)));
  problem.checksum_tables = true;

  const std::vector<detail::DpKernelInfo> kernels = detail::dp_kernels();
  ASSERT_EQ(kernels.front().kernel, detail::DpKernel::kScalar);
  EXPECT_STREQ(kernels.back().name, dp_kernel_name());
  if (common::simd::kHasSimd) {
    EXPECT_GE(kernels.size(), 2u);
  }
  for (const bool pruning : {false, true}) {
    problem.dominance_pruning = pruning;
    DpWorkspace workspace;
    const auto scalar =
        detail::solve_dp_with_kernel(problem, workspace, detail::DpKernel::kScalar);
    ASSERT_TRUE(scalar.has_value());
    EXPECT_NE(scalar->stats.table_checksum, 0u);
    for (const detail::DpKernelInfo& kernel : kernels) {
      const auto solution = detail::solve_dp_with_kernel(problem, workspace, kernel.kernel);
      ASSERT_TRUE(solution.has_value()) << kernel.name;
      EXPECT_TRUE(same_stats(solution->stats, scalar->stats))
          << kernel.name << " pruning=" << pruning << " checksum " << std::hex
          << solution->stats.table_checksum << " vs scalar " << scalar->stats.table_checksum;
      EXPECT_TRUE(profiles_bit_identical(solution->profile, scalar->profile))
          << kernel.name << " pruning=" << pruning;
    }
  }
}

TEST(DpWorkspace, ReusedWorkspaceFollowsEnergyModelChanges) {
  // The model tables are a function of the energy model's content, not of
  // its address: a workspace reused after the model changes in place, or
  // after another model is built at the same address, must solve exactly as
  // a fresh workspace does.
  const road::Corridor corridor = road::make_us25_corridor();
  PlannerConfig cfg;
  cfg.policy = SignalPolicy::kGreenWindow;
  cfg.resolution.ds_m = 20.0;
  const VelocityPlanner planner(corridor, ev::EnergyModel{}, cfg);
  DpProblem problem;
  problem.route = &corridor.route;
  problem.depart_time = Seconds(60.0);
  problem.resolution = cfg.resolution;
  problem.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
  problem.events = planner.build_events(
      problem.depart_time, std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(600.0)));

  std::optional<ev::EnergyModel> energy;
  DpWorkspace reused;
  const auto expect_fresh = [&](const char* what) {
    problem.energy = &*energy;
    const auto again = solve_dp(problem, reused);
    const auto fresh = solve_dp(problem);
    ASSERT_TRUE(again.has_value() && fresh.has_value()) << what;
    EXPECT_TRUE(same_stats(again->stats, fresh->stats))
        << what << ": reused workspace " << again->stats.best_cost_mah << " mAh, fresh "
        << fresh->stats.best_cost_mah << " mAh";
    EXPECT_TRUE(profiles_bit_identical(again->profile, fresh->profile)) << what;
  };

  energy.emplace();
  expect_fresh("paper-default model");
  energy->set_powertrain_map(
      std::make_shared<const ev::EfficiencyMap>(ev::EfficiencyMap::typical_ev_motor()));
  expect_fresh("after set_powertrain_map");

  const double pack_voltage = energy->pack_voltage();
  ev::VehicleParams params;
  params.mass_kg = 1300.0;
  energy.emplace(params, pack_voltage);
  expect_fresh("1300 kg model");
  params.mass_kg = 2600.0;
  energy.emplace(params, pack_voltage);  // same address as the 1300 kg model
  expect_fresh("2600 kg model");
}

TEST(DpSolver, UnavailableKernelIsRejected) {
  const road::Route route = flat_route(500.0);
  const ev::EnergyModel energy;
  const std::vector<detail::DpKernelInfo> kernels = detail::dp_kernels();
  DpWorkspace workspace;
  for (const detail::DpKernel kernel :
       {detail::DpKernel::kScalar, detail::DpKernel::kVector, detail::DpKernel::kAvx2}) {
    const bool listed = std::any_of(kernels.begin(), kernels.end(),
                                    [kernel](const auto& k) { return k.kernel == kernel; });
    if (listed) {
      EXPECT_TRUE(
          detail::solve_dp_with_kernel(base_problem(route, energy), workspace, kernel).has_value());
    } else {
      EXPECT_THROW(
          (void)detail::solve_dp_with_kernel(base_problem(route, energy), workspace, kernel),
          std::invalid_argument);
    }
  }
}

TEST(DpSolver, SolveDpBatchIsStandaloneSolvesInInputOrder) {
  // solve_dp_batch runs solve_dp on each problem through one pooled
  // workspace: every result, the infeasible one included, must be the
  // standalone solve of the same problem, and a throwing solve must still
  // hand the workspace back to the pool.
  const road::Route short_route = flat_route(500.0);
  const road::Route long_route = flat_route(2000.0);
  const road::Route signal_route = flat_route(1000.0);
  const ev::EnergyModel energy;
  std::vector<DpProblem> problems = {base_problem(short_route, energy),
                                     base_problem(long_route, energy),
                                     base_problem(signal_route, energy)};
  problems[0].checksum_tables = true;
  problems[1].resolution.horizon_s = 40.0;  // 2 km needs > 100 s at the limit
  LayerEvent signal;
  signal.layer = 50;  // 500 m
  signal.enforce_windows = true;
  signal.windows = {{60.0, 75.0}, {120.0, 135.0}};
  problems[2].events = {signal};

  WorkspacePool pool;
  const std::vector<std::optional<DpSolution>> batch = solve_dp_batch(problems, pool);
  ASSERT_EQ(batch.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::optional<DpSolution> alone = solve_dp(problems[i]);
    ASSERT_EQ(batch[i].has_value(), alone.has_value()) << "problem " << i;
    if (!alone) continue;
    EXPECT_TRUE(same_stats(batch[i]->stats, alone->stats)) << "problem " << i;
    EXPECT_TRUE(profiles_bit_identical(batch[i]->profile, alone->profile)) << "problem " << i;
  }
  EXPECT_FALSE(batch[1].has_value());
  EXPECT_NE(batch[0]->stats.table_checksum, 0u);

  const std::size_t idle = pool.idle_count();
  DpProblem invalid = problems[0];
  invalid.resolution.ds_m = 0.0;
  const std::vector<DpProblem> throwing = {problems[0], invalid};
  EXPECT_THROW((void)solve_dp_batch(throwing, pool), std::invalid_argument);
  EXPECT_EQ(pool.idle_count(), idle);
}

TEST(DpSolver, FlatUnconstrainedTripIsFeasibleAndClean) {
  const road::Route route = flat_route(500.0);
  const ev::EnergyModel energy;
  const auto solution = solve_dp(base_problem(route, energy));
  ASSERT_TRUE(solution.has_value());
  check_kinematics(solution->profile, route, energy.params());
  EXPECT_GT(solution->profile.total_energy_mah(), 0.0);
  EXPECT_EQ(solution->profile.planned_stops(), 0);
  EXPECT_GT(solution->stats.relaxations, 1000u);
}

TEST(DpSolver, InfeasibleWhenHorizonTooShort) {
  const road::Route route = flat_route(2000.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  p.resolution.horizon_s = 40.0;  // 2 km needs > 100 s at the limit
  EXPECT_FALSE(solve_dp(p).has_value());
}

TEST(DpSolver, HigherTimeWeightShortensTrip) {
  const road::Route route = flat_route(1000.0);
  const ev::EnergyModel energy;
  DpProblem slow = base_problem(route, energy);
  slow.resolution.horizon_s = 300.0;
  slow.time_weight_mah_per_s = 0.5;
  DpProblem fast = slow;
  fast.time_weight_mah_per_s = 8.0;
  const auto s = solve_dp(slow);
  const auto f = solve_dp(fast);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(f.has_value());
  EXPECT_LT(f->profile.trip_time(), s->profile.trip_time());
  // And the fast trip pays for it in physical charge.
  EXPECT_GT(f->profile.total_energy_mah(), s->profile.total_energy_mah());
}

TEST(DpSolver, StopSignForcesStandstillAndDwell) {
  const road::Route route = flat_route(600.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  LayerEvent sign;
  sign.type = LayerEvent::Type::kStopSign;
  sign.layer = 30;  // 300 m
  sign.dwell_s = 2.0;
  p.events = {sign};
  const auto solution = solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  const PlannedProfile& profile = solution->profile;
  EXPECT_NEAR(profile.speed_at_position(300.0), 0.0, 1e-9);
  EXPECT_GE(profile.dwell_time(), 2.0 - 1e-9);
  EXPECT_GE(profile.planned_stops(), 1);
  check_kinematics(profile, route, energy.params());
  // Arrival at the sign is noticeably later than the unconstrained trip.
  const auto free = solve_dp(base_problem(route, energy));
  EXPECT_GT(profile.trip_time(), free->profile.trip_time());
}

TEST(DpSolver, SignalHardWindowIsRespected) {
  const road::Route route = flat_route(1000.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  p.penalty.mode = PenaltyMode::kHard;
  LayerEvent signal;
  signal.type = LayerEvent::Type::kSignal;
  signal.layer = 50;  // 500 m
  signal.enforce_windows = true;
  signal.windows = {{60.0, 75.0}, {120.0, 135.0}};
  p.events = {signal};
  const auto solution = solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  const double crossing = solution->profile.time_at_position(500.0);
  EXPECT_TRUE((crossing >= 60.0 && crossing < 75.0) || (crossing >= 120.0 && crossing < 135.0))
      << "crossing at " << crossing;
  check_kinematics(solution->profile, route, energy.params());
}

TEST(DpSolver, SignalMultiplicativePenaltySteersIntoWindow) {
  const road::Route route = flat_route(1000.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  p.penalty.mode = PenaltyMode::kMultiplicative;
  p.penalty.m = 1000.0;
  LayerEvent signal;
  signal.type = LayerEvent::Type::kSignal;
  signal.layer = 50;
  signal.enforce_windows = true;
  signal.windows = {{70.0, 90.0}};
  p.events = {signal};
  const auto solution = solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  const double crossing = solution->profile.time_at_position(500.0);
  EXPECT_GE(crossing, 70.0);
  EXPECT_LT(crossing, 90.0);
}

TEST(DpSolver, NoWindowAtAllStillFeasibleUnderSoftPenalty) {
  // With an empty window set the soft penalty applies everywhere but the
  // problem stays solvable (the paper's M, not +inf).
  const road::Route route = flat_route(600.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  LayerEvent signal;
  signal.type = LayerEvent::Type::kSignal;
  signal.layer = 30;
  signal.enforce_windows = true;
  signal.windows = {};
  p.events = {signal};
  EXPECT_TRUE(solve_dp(p).has_value());
}

TEST(DpSolver, WaitingAtSignalBeatsPenalizedCrossing) {
  // A window far in the future: the optimizer should dwell (wait) rather
  // than pay M * |cost|.
  const road::Route route = flat_route(600.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  p.time_weight_mah_per_s = 0.1;  // waiting is cheap
  p.penalty.m = 100000.0;
  LayerEvent signal;
  signal.type = LayerEvent::Type::kSignal;
  signal.layer = 30;
  signal.enforce_windows = true;
  signal.windows = {{100.0, 130.0}};
  p.events = {signal};
  const auto solution = solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  const double crossing = solution->profile.time_at_position(300.0);
  EXPECT_GE(crossing, 100.0);
  EXPECT_LT(crossing, 130.0);
}

TEST(DpSolver, SpeedLimitDropIsObeyed) {
  const road::Route route({{0.0, 300.0, 20.0, 0.0, 0.0}, {300.0, 600.0, 8.0, 0.0, 0.0}});
  const ev::EnergyModel energy;
  const auto solution = solve_dp(base_problem(route, energy));
  ASSERT_TRUE(solution.has_value());
  for (const PlanNode& node : solution->profile.nodes()) {
    if (node.position_m > 300.0 + 1e-9) {
      EXPECT_LE(node.speed_ms, 8.0 + 1e-9);
    }
  }
}

TEST(DpSolver, GradeRaisesEnergy) {
  const road::Route flat = flat_route(800.0);
  const road::Route hill({{0.0, 800.0, 20.0, 0.0, 0.03}});
  const ev::EnergyModel energy;
  const auto f = solve_dp(base_problem(flat, energy));
  const auto h = solve_dp(base_problem(hill, energy));
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE(h.has_value());
  EXPECT_GT(h->profile.total_energy_mah(), f->profile.total_energy_mah());
}

TEST(DpSolver, EnergyAnnotationConsistentWithModel) {
  // Re-evaluating the plan's drive cycle with the energy model should land
  // near the plan's own cumulative annotation.
  const road::Route route = flat_route(800.0);
  const ev::EnergyModel energy;
  const auto solution = solve_dp(base_problem(route, energy));
  ASSERT_TRUE(solution.has_value());
  const auto cycle = solution->profile.to_drive_cycle(0.5);
  const auto trip = energy.trip(cycle);
  EXPECT_NEAR(trip.charge_mah, solution->profile.total_energy_mah(),
              0.12 * std::abs(solution->profile.total_energy_mah()) + 2.0);
}

/// Property sweep: finer grids never make the optimum worse (within noise)
/// and always produce feasible kinematics.
class ResolutionSweep : public ::testing::TestWithParam<double> {};
TEST_P(ResolutionSweep, FeasibleAcrossGrids) {
  const road::Route route = flat_route(500.0);
  const ev::EnergyModel energy;
  DpProblem p = base_problem(route, energy);
  p.resolution.ds_m = GetParam();
  const auto solution = solve_dp(p);
  ASSERT_TRUE(solution.has_value());
  check_kinematics(solution->profile, route, energy.params());
}
INSTANTIATE_TEST_SUITE_P(Grids, ResolutionSweep, ::testing::Values(5.0, 10.0, 20.0, 25.0, 50.0));

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
//   EVVO_UPDATE_GOLDEN=1 ./test_dp_solver --gtest_filter='Us25GoldenChecksum.*'
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

  // Interleave solves on one workspace: the lazy per-layer reset must never
  // let one problem's state tables leak into another's solve.
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

}  // namespace
}  // namespace evvo::core
