// Invariant checkers for one generated scenario: the heart of the
// correctness harness.
//
// check_scenario() runs the full battery against a ScenarioSpec:
//  - spec serialization round-trips exactly;
//  - QL-model sanity: predicted zero-queue windows T_q lie inside green
//    phases, are ordered and disjoint, and queue lengths are never negative;
//  - solver identity: the unpruned DP cost/time/backpointer tables
//    (compared by checksum) and the extracted profile match the naive
//    reference solver (differential oracle), and every relaxation kernel
//    solves bit-identically;
//  - pruning soundness: pruned and unpruned solves return bit-identical
//    best costs and profiles;
//  - plan feasibility: speed limits, the acceleration envelope, boundary
//    speeds, stop-sign dwells, horizon;
//  - signal-window compliance: crossings outside T_q only when a hard-mode
//    cross-solve proves compliance is costlier (or infeasible);
//  - energy accounting: the profile's annotated energy matches an independent
//    sub-sampled integration and the drive-cycle evaluator;
//  - closed-loop replay: the plan executes in the microsimulator on an empty
//    road, completing near the planned trip time.
//
// Fault injection flips one of these invariants on purpose so the harness
// can prove it would notice (tests + `evvo_fuzz --inject`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace evvo::check {

/// Deliberate defects for harness self-tests: each targets one invariant
/// family, which must report at least one violation.
enum class Fault {
  kNone,
  kWindowShift,   ///< shift T_q after planning -> compliance must fire
  kAccelTamper,   ///< corrupt a profile speed -> feasibility must fire
  kEnergyTamper,  ///< corrupt the energy annotation -> accounting must fire
  kCostTamper,    ///< corrupt the reference cost -> differential must fire
};

const char* fault_name(Fault fault);
/// Parses a fault_name(); throws std::invalid_argument on unknown names.
Fault fault_from_name(const std::string& name);

struct CheckOptions {
  /// Run the naive reference solver (the expensive differential oracle).
  bool run_reference = true;
  /// Run the closed-loop microsim replay oracle.
  bool run_replay = true;
  /// Re-solve with every other relaxation kernel the build and CPU offer
  /// (scalar scan, baseline vector backend, AVX2 copy) and require the
  /// tables, stats, cost, and profile to match the default solve
  /// bit-for-bit. Only the scalar scan exists on scalar-backend builds.
  bool run_simd_identity = true;
  Fault inject = Fault::kNone;
};

struct Violation {
  std::string invariant;  ///< dotted id, e.g. "differential.checksum"
  std::string detail;     ///< human-readable specifics (values, positions)
};

struct [[nodiscard]] CheckReport {
  std::uint64_t seed = 0;
  bool feasible = false;       ///< production solver found a trajectory
  double best_cost_mah = 0.0;  ///< spec-config solve (when feasible)
  double trip_time_s = 0.0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Runs every applicable invariant against the scenario. Never throws for
/// scenario-content problems (those become violations); only programming
/// errors (bad options) escape.
CheckReport check_scenario(const ScenarioSpec& spec, const CheckOptions& options = {});

/// Multi-line human-readable rendering (one line per violation).
std::string report_to_string(const CheckReport& report);

}  // namespace evvo::check
