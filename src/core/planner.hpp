// High-level velocity-optimization facade: corridor + energy model +
// signal policy -> optimal velocity profile.
//
// Three signal policies implement the paper's three planners:
//  - kQueueAware   : the proposed method (T_q from the QL model, Eq. 11-12)
//  - kGreenWindow  : the "current DP" baseline [2] (green phases assumed
//                    queue-free, i.e. vehicles pass the instant the light is
//                    green)
//  - kIgnoreSignals: classic stop-sign-only DP (lower bound / ablation)
#pragma once

#include <memory>

#include "common/units.hpp"
#include "core/dp_solver.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"
#include "traffic/queue_model.hpp"
#include "traffic/queue_predictor.hpp"

namespace evvo::core {

class WorkspacePool;

enum class SignalPolicy {
  kQueueAware,
  kGreenWindow,
  kIgnoreSignals,
};

const char* signal_policy_name(SignalPolicy policy);

struct PlannerConfig {
  DpResolution resolution{};
  PenaltyConfig penalty{};
  SignalPolicy policy = SignalPolicy::kQueueAware;
  traffic::VmParams vm{};  ///< QL/VM parameters for queue-aware planning
  traffic::DischargeModel discharge = traffic::DischargeModel::kVmAcceleration;
  /// Value of trip time (see DpProblem::time_weight_mah_per_s). The default
  /// is calibrated so the optimal profile's trip time matches the paper's
  /// fast-driving trip time on the US-25 corridor; 0 = pure energy.
  double time_weight_mah_per_s = 5.0;
  /// Safety margin carved off each predicted window: the start is pushed
  /// later (queue-clearance prediction error) and the end pulled earlier
  /// (don't cross at the instant the light flips). Windows that vanish are
  /// dropped.
  double window_start_margin_s = 2.0;
  double window_end_margin_s = 4.0;
  /// Smoothness tie-breaker (see DpProblem::smoothness_weight_mah_per_ms).
  double smoothness_weight_mah_per_ms = 0.3;
  /// Dominance pruning toggle (see DpProblem::dominance_pruning).
  bool dominance_pruning = true;
};

/// The planner owns a free-list of DpWorkspace shared by all copies of
/// itself, so repeated plans reuse the solver's table allocations instead of
/// reallocating ~tens of MB per call. plan()/replan() are safe to call
/// concurrently; each call checks a workspace out of the free list for its
/// duration and solves on the calling thread.
class VelocityPlanner {
 public:
  VelocityPlanner(road::Corridor corridor, ev::EnergyModel energy, PlannerConfig config = {});

  const road::Corridor& corridor() const { return corridor_; }
  const ev::EnergyModel& energy_model() const { return energy_; }
  const PlannerConfig& config() const { return config_; }

  /// The regulatory events (with predicted T_q windows under the configured
  /// policy) for a trip departing at `depart_time_s`. Exposed so experiments
  /// can inspect the windows the optimizer targets. `arrivals` feeds the QL
  /// model and is required for kQueueAware.
  [[nodiscard]] std::vector<LayerEvent> build_events(
      Seconds depart_time, std::shared_ptr<const traffic::ArrivalRateProvider> arrivals) const;

  /// Plans the full trip (source and destination at rest, Eq. 7d). Throws
  /// std::runtime_error if no feasible trajectory exists within the horizon,
  /// std::invalid_argument for a non-finite departure time.
  [[nodiscard]] PlannedProfile plan(Seconds depart_time,
                      std::shared_ptr<const traffic::ArrivalRateProvider> arrivals = nullptr) const;

  /// plan() plus solver diagnostics.
  [[nodiscard]] DpSolution plan_with_stats(
      Seconds depart_time,
      std::shared_ptr<const traffic::ArrivalRateProvider> arrivals = nullptr) const;

  /// Replans the remaining trip from a mid-route state: current position on
  /// the corridor, current speed (snapped to the velocity grid), current
  /// time. The returned profile is expressed in the original corridor
  /// coordinates (it starts at `position_m`). Regulatory elements within one
  /// grid step of the position are treated as already passed. Throws
  /// std::invalid_argument for a position off the corridor, a non-finite
  /// position, speed or time, or a speed off the velocity grid (see
  /// speed_level).
  [[nodiscard]] PlannedProfile replan(Meters position, MetersPerSecond speed, Seconds time,
                        std::shared_ptr<const traffic::ArrivalRateProvider> arrivals = nullptr) const;

  /// Velocity-grid level of a replan start speed, round(speed / dv). Throws
  /// std::invalid_argument for a speed off the grid: negative, NaN, or
  /// rounding past the top level floor(max speed limit / dv) - that is, more
  /// than half a step above the corridor's top grid speed. replan() and
  /// PlanService's replan binning share this one definition, so a speed is
  /// rejected up front instead of being clamped onto the grid.
  [[nodiscard]] long speed_level(MetersPerSecond speed) const;

 private:
  /// Checks out a workspace, runs solve_dp, returns the workspace.
  /// std::nullopt = infeasible.
  std::optional<DpSolution> solve_problem(const DpProblem& problem) const;

  road::Corridor corridor_;
  ev::EnergyModel energy_;
  PlannerConfig config_;
  std::shared_ptr<WorkspacePool> workspaces_;
};

}  // namespace evvo::core
