#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "check/reference_dp.hpp"
#include "common/units.hpp"
#include "core/penalty.hpp"
#include "core/profile_eval.hpp"
#include "sim/microsim.hpp"
#include "sim/traci.hpp"
#include "traffic/queue_model.hpp"

namespace evvo::check {

namespace {

using core::DpProblem;
using core::DpSolution;
using core::LayerEvent;
using core::PlanNode;
using core::PlannedProfile;

/// Accumulates violations with printf-free formatted details.
class Reporter {
 public:
  explicit Reporter(CheckReport& report) : report_(report) {}

  std::ostringstream& add(const std::string& invariant) {
    report_.violations.push_back(Violation{invariant, {}});
    detail_.str({});
    detail_.clear();
    detail_.precision(12);
    return detail_;
  }
  /// Must be called after streaming into the stream add() returned.
  void commit() { report_.violations.back().detail = detail_.str(); }

  void note(const std::string& invariant, const std::string& detail) {
    report_.violations.push_back(Violation{invariant, detail});
  }

 private:
  CheckReport& report_;
  std::ostringstream detail_;
};

bool profiles_bit_identical(const PlannedProfile& a, const PlannedProfile& b) {
  const auto& na = a.nodes();
  const auto& nb = b.nodes();
  if (na.size() != nb.size()) return false;
  return na.empty() || std::memcmp(na.data(), nb.data(), na.size() * sizeof(PlanNode)) == 0;
}

/// Recomputes the solver's objective by walking the extracted profile with
/// the true events, reproducing the float-add sequence of the inner loop.
/// Diverges from the reported best cost only when the solver mis-accounted a
/// transition - e.g. it believed a crossing was inside T_q when it was not.
/// Returns +inf when a crossing is hard-infeasible under the true windows.
std::optional<double> recost_profile(const Scenario& scenario, const PlannedProfile& profile) {
  const road::Route& route = scenario.corridor().route;
  const ev::EnergyModel& energy = scenario.energy();
  const core::PlannerConfig& cfg = scenario.spec().planner;
  const double ds = scenario.grid_ds();
  const auto n_hops = static_cast<std::size_t>(std::llround(route.length() / ds));
  const std::vector<double> grades = bucketed_layer_grades(route, n_hops, ds);

  std::vector<const LayerEvent*> event_at(n_hops + 1, nullptr);
  for (const LayerEvent& e : scenario.events()) event_at[e.layer] = &e;

  const double lambda = cfg.time_weight_mah_per_s;
  const double idle_mah_s = ah_to_mah(as_to_ah(energy.accessory_current_a())) + lambda;
  const double dv = cfg.resolution.dv_ms;

  float cost = 0.0f;
  const auto& nodes = profile.nodes();
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    const PlanNode& prev = nodes[n - 1];
    const PlanNode& cur = nodes[n];
    const double dt = cur.time_s - prev.time_s;
    const double dist = cur.position_m - prev.position_m;
    if (dist < 1e-9) {
      cost += static_cast<float>(idle_mah_s * dt);  // dwell bin or stop-sign wait
      continue;
    }
    const auto layer = static_cast<std::size_t>(std::llround(prev.position_m / ds));
    if (layer >= n_hops) return std::nullopt;  // off-grid node: not recostable
    const double v_mid = 0.5 * (prev.speed_ms + cur.speed_ms);
    if (v_mid <= 1e-9) return std::nullopt;
    const auto hop_dt = static_cast<float>(ds / v_mid);
    const auto accel = static_cast<float>(
        (cur.speed_ms * cur.speed_ms - prev.speed_ms * prev.speed_ms) / (2.0 * ds));
    const auto raw = static_cast<float>(
        ah_to_mah(as_to_ah(energy.current_a(MetersPerSecond(v_mid), MetersPerSecondSquared(accel), grades[layer]) * hop_dt)));

    const LayerEvent* event = event_at[layer];
    float hop_cost;
    if (event && event->type == LayerEvent::Type::kSignal && event->enforce_windows) {
      const bool inside = core::in_any_window(event->windows, prev.time_s);
      hop_cost = static_cast<float>(
          core::penalized_cost(cfg.penalty, static_cast<double>(raw), inside));
      if (!std::isfinite(hop_cost)) return std::numeric_limits<double>::infinity();
    } else {
      hop_cost = raw;
    }
    hop_cost += static_cast<float>(lambda * hop_dt);
    const double j_prev = std::lround(prev.speed_ms / dv);
    const double j_cur = std::lround(cur.speed_ms / dv);
    hop_cost += static_cast<float>(cfg.smoothness_weight_mah_per_ms * std::abs(j_cur - j_prev) * dv);
    cost += hop_cost;
  }
  return static_cast<double>(cost);
}

/// Independent energy integration: each inter-node segment is constant-
/// acceleration motion; sub-sample it instead of trusting the single
/// mid-speed evaluation the solver's annotation uses.
double integrate_profile_energy(const road::Route& route, const ev::EnergyModel& energy,
                                const PlannedProfile& profile) {
  const double idle_mah_s = ah_to_mah(as_to_ah(energy.accessory_current_a()));
  double total = 0.0;
  const auto& nodes = profile.nodes();
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    const PlanNode& prev = nodes[n - 1];
    const PlanNode& cur = nodes[n];
    const double dt = cur.time_s - prev.time_s;
    const double dist = cur.position_m - prev.position_m;
    if (dt <= 0.0) continue;
    if (dist < 1e-9) {
      total += idle_mah_s * dt;
      continue;
    }
    const double a = (cur.speed_ms * cur.speed_ms - prev.speed_ms * prev.speed_ms) / (2.0 * dist);
    constexpr int kSub = 8;
    for (int s = 0; s < kSub; ++s) {
      const double tm = (static_cast<double>(s) + 0.5) / kSub * dt;
      const double v = prev.speed_ms + a * tm;
      const double pos = prev.position_m + prev.speed_ms * tm + 0.5 * a * tm * tm;
      total += ah_to_mah(
          as_to_ah(energy.current_a(MetersPerSecond(v), MetersPerSecondSquared(a), route.grade_at(pos)) * (dt / kSub)));
    }
  }
  return total;
}

/// Asserts every relaxation kernel the build and CPU offer (the scalar
/// scan, the baseline vector backend, and the run-time dispatched AVX2 copy
/// where it exists) solves bit-identically to the baseline solve: table
/// checksum, every DpStats field, best cost and extracted profile. The SIMD
/// layer promises lane-exact IEEE arithmetic and scalar tie-breaking at any
/// lane width (common/simd.hpp); this is the oracle that holds every kernel
/// to that promise on every generated scenario. The kernel that produced the
/// baseline is not solved again.
void check_simd_identity(Reporter& rep, const DpProblem& base, core::DpWorkspace& ws,
                         const std::optional<DpSolution>& baseline) {
  const std::vector<core::detail::DpKernelInfo> kernels = core::detail::dp_kernels();
  DpProblem p = base;
  p.checksum_tables = true;
  for (const core::detail::DpKernelInfo& kernel : kernels) {
    if (kernel.kernel == kernels.back().kernel) continue;
    const std::optional<DpSolution> other =
        core::detail::solve_dp_with_kernel(p, ws, kernel.kernel);
    if (other.has_value() != baseline.has_value()) {
      rep.add("simd.feasibility") << kernel.name << " kernel feasible=" << other.has_value()
                                  << " but the baseline solve feasible="
                                  << baseline.has_value();
      rep.commit();
      continue;
    }
    if (!other) continue;
    const core::DpStats& a = other->stats;
    const core::DpStats& b = baseline->stats;
    if (a.table_checksum != b.table_checksum) {
      rep.add("simd.checksum") << std::hex << kernel.name << " kernel table checksum "
                               << a.table_checksum << " != baseline " << b.table_checksum;
      rep.commit();
    }
    if (a.best_cost_mah != b.best_cost_mah) {
      rep.add("simd.cost") << kernel.name << " kernel best cost " << a.best_cost_mah
                           << " != baseline " << b.best_cost_mah;
      rep.commit();
    }
    if (a.layers != b.layers || a.velocity_levels != b.velocity_levels ||
        a.time_bins != b.time_bins || a.relaxations != b.relaxations ||
        a.frontier_states != b.frontier_states || a.pruned_states != b.pruned_states) {
      rep.add("simd.stats") << kernel.name << " kernel work counters (relaxations "
                            << a.relaxations << ", frontier " << a.frontier_states
                            << ", pruned " << a.pruned_states << ") != baseline ("
                            << b.relaxations << ", " << b.frontier_states << ", "
                            << b.pruned_states << ")";
      rep.commit();
    }
    if (!profiles_bit_identical(other->profile, baseline->profile)) {
      rep.add("simd.profile") << kernel.name
                              << " kernel extracted profile differs from the baseline profile";
      rep.commit();
    }
  }
}

void check_queue_model(Reporter& rep, const Scenario& scenario) {
  const ScenarioSpec& spec = scenario.spec();
  const double t0 = spec.depart_time_s;
  const double t1 = t0 + spec.planner.resolution.horizon_s;
  const traffic::QueueModel model(spec.planner.vm, spec.planner.discharge);
  for (std::size_t li = 0; li < scenario.corridor().lights.size(); ++li) {
    const road::TrafficLight& light = scenario.corridor().lights[li];
    const traffic::QueuePredictor predictor(light, model, scenario.arrivals());

    const auto windows = predictor.zero_queue_windows(Seconds(t0), Seconds(t1));
    double prev_end = -1e18;
    for (const road::TimeWindow& w : windows) {
      if (!(w.duration() > 0.0)) {
        rep.add("queue.window-empty") << "light " << li << ": window [" << w.start_s << ", "
                                      << w.end_s << ") has non-positive duration";
        rep.commit();
      }
      if (w.start_s < prev_end) {
        rep.add("queue.window-order")
            << "light " << li << ": window starting " << w.start_s
            << " overlaps or precedes the previous window ending " << prev_end;
        rep.commit();
      }
      prev_end = w.end_s;
      // T_q must lie inside a green phase: a zero-queue crossing at red is a
      // contradiction (Eq. 11 windows open during discharge or later).
      const double probes[] = {w.start_s + 1e-6, 0.5 * (w.start_s + w.end_s), w.end_s - 1e-6};
      for (const double t : probes) {
        if (!light.is_green(t)) {
          rep.add("queue.window-red") << "light " << li << ": T_q [" << w.start_s << ", "
                                      << w.end_s << ") contains red time " << t;
          rep.commit();
          break;
        }
      }
    }

    const double step = std::max(1.0, (t1 - t0) / 64.0);
    for (double t = t0; t <= t1; t += step) {
      const double q = predictor.queue_length_m_at(Seconds(t));
      if (!(q >= -1e-9) || !std::isfinite(q)) {
        rep.add("queue.negative") << "light " << li << ": queue length " << q << " m at t=" << t;
        rep.commit();
        break;
      }
    }
  }

  // The events the planner actually enforces must also sit inside green (the
  // margin trimming may only shrink windows, never spill them into red).
  std::size_t signal_index = 0;
  for (const LayerEvent& e : scenario.events()) {
    if (e.type != LayerEvent::Type::kSignal) continue;
    const road::TrafficLight& light = scenario.corridor().lights.at(signal_index++);
    if (!e.enforce_windows) continue;
    for (const road::TimeWindow& w : e.windows) {
      if (w.duration() <= 0.0 || !light.is_green(w.start_s + 1e-6) ||
          !light.is_green(w.end_s - 1e-6)) {
        rep.add("events.window-red") << "event layer " << e.layer << ": enforced window ["
                                     << w.start_s << ", " << w.end_s << ") not fully green";
        rep.commit();
      }
    }
  }
}

void check_feasibility(Reporter& rep, const Scenario& scenario, const PlannedProfile& profile) {
  const road::Route& route = scenario.corridor().route;
  const ev::VehicleParams& vp = scenario.energy().params();
  const core::DpResolution& res = scenario.spec().planner.resolution;
  const auto& nodes = profile.nodes();

  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const PlanNode& node = nodes[n];
    if (node.position_m < -1e-6 || node.position_m > route.length() + 1e-6) {
      rep.add("plan.position") << "node " << n << " at " << node.position_m
                               << " m is outside the corridor [0, " << route.length() << "]";
      rep.commit();
    }
    if (node.speed_ms < -1e-9) {
      rep.add("plan.speed-negative") << "node " << n << " speed " << node.speed_ms;
      rep.commit();
    }
    const double limit = route.speed_limit_at(node.position_m);
    if (node.speed_ms > limit + 1e-6) {
      rep.add("plan.speed-limit") << "node " << n << " at " << node.position_m << " m: speed "
                                  << node.speed_ms << " > limit " << limit;
      rep.commit();
    }
  }
  if (!nodes.empty()) {
    if (std::abs(nodes.front().speed_ms) > 1e-9 || std::abs(nodes.back().speed_ms) > 1e-9) {
      rep.add("plan.boundary-speed") << "trip must start and end at rest; got "
                                     << nodes.front().speed_ms << " and " << nodes.back().speed_ms;
      rep.commit();
    }
  }
  if (profile.trip_time() > res.horizon_s + 1e-6) {
    rep.add("plan.horizon") << "trip time " << profile.trip_time() << " s exceeds the horizon "
                            << res.horizon_s << " s";
    rep.commit();
  }

  for (std::size_t n = 1; n < nodes.size(); ++n) {
    const PlanNode& prev = nodes[n - 1];
    const PlanNode& cur = nodes[n];
    const double dt = cur.time_s - prev.time_s;
    const double dist = cur.position_m - prev.position_m;
    if (dist < -1e-9 || dt < -1e-9) {
      rep.add("plan.monotone") << "node " << n << ": position/time step (" << dist << " m, " << dt
                               << " s) goes backwards";
      rep.commit();
      continue;
    }
    if (dist < 1e-9) {
      if (std::abs(prev.speed_ms) > 1e-9 || std::abs(cur.speed_ms) > 1e-9) {
        rep.add("plan.dwell-moving") << "node " << n << ": dwell with nonzero speed "
                                     << prev.speed_ms << " -> " << cur.speed_ms;
        rep.commit();
      }
      continue;
    }
    const double a = (cur.speed_ms * cur.speed_ms - prev.speed_ms * prev.speed_ms) / (2.0 * dist);
    if (a < vp.min_acceleration - 1e-6 || a > vp.max_acceleration + 1e-6) {
      rep.add("plan.accel") << "node " << n << ": acceleration " << a << " outside ["
                            << vp.min_acceleration << ", " << vp.max_acceleration << "]";
      rep.commit();
    }
  }

  // Stop signs: the plan must reach v = 0 at the sign layer and hold at
  // least the mandatory dwell before moving on.
  const double ds = scenario.grid_ds();
  for (const LayerEvent& e : scenario.events()) {
    if (e.type != LayerEvent::Type::kStopSign) continue;
    const double pos = static_cast<double>(e.layer) * ds;
    if (profile.speed_at_position(pos) > 1e-9) {
      rep.add("plan.sign-speed") << "stop sign at " << pos << " m crossed at speed "
                                 << profile.speed_at_position(pos);
      rep.commit();
    }
    // Node times are floats; at t ~ 500 s a float ulp is ~3e-5 s, so the
    // measured dwell (a difference of two accumulated node times) can fall
    // short of the double-precision mandate by a few ulps.
    const double held = profile.departure_time_at(pos) - profile.time_at_position(pos);
    if (held < e.dwell_s - 1e-3) {
      rep.add("plan.sign-dwell") << "stop sign at " << pos << " m held " << held
                                 << " s < mandatory " << e.dwell_s << " s";
      rep.commit();
    }
  }
}

}  // namespace

const char* fault_name(Fault fault) {
  switch (fault) {
    case Fault::kNone:
      return "none";
    case Fault::kWindowShift:
      return "window-shift";
    case Fault::kAccelTamper:
      return "accel-tamper";
    case Fault::kEnergyTamper:
      return "energy-tamper";
    case Fault::kCostTamper:
      return "cost-tamper";
  }
  return "?";
}

Fault fault_from_name(const std::string& name) {
  for (const Fault f : {Fault::kNone, Fault::kWindowShift, Fault::kAccelTamper,
                        Fault::kEnergyTamper, Fault::kCostTamper}) {
    if (name == fault_name(f)) return f;
  }
  throw std::invalid_argument("unknown fault '" + name + "'");
}

CheckReport check_scenario(const ScenarioSpec& spec, const CheckOptions& options) {
  CheckReport report;
  report.seed = spec.seed;
  Reporter rep(report);

  // Serialization must round-trip exactly (the shrinker and --replay-spec
  // depend on it).
  try {
    const std::string text = spec_to_text(spec);
    if (spec_to_text(spec_from_text(text)) != text) {
      rep.note("spec.roundtrip", "spec_to_text(spec_from_text(text)) != text");
    }
  } catch (const std::exception& e) {
    rep.note("spec.roundtrip", e.what());
  }

  std::optional<Scenario> scenario;
  try {
    scenario.emplace(spec);
  } catch (const std::exception& e) {
    rep.note("scenario.materialize", e.what());
    return report;
  }

  check_queue_model(rep, *scenario);

  // The problems under test. kWindowShift models a planner running on stale
  // window predictions: the solver sees shifted T_q while the checkers judge
  // against the true ones - the objective re-coster must notice.
  DpProblem base = scenario->problem();
  if (options.inject == Fault::kWindowShift) {
    for (LayerEvent& e : base.events) {
      if (e.type != LayerEvent::Type::kSignal || !e.enforce_windows) continue;
      for (road::TimeWindow& w : e.windows) {
        w.start_s += 13.0;
        w.end_s += 13.0;
      }
    }
  }

  core::DpWorkspace ws;  // shared across every production solve below

  // --- unpruned solve, tables checksummed for the identity checks ---
  DpProblem unpruned = base;
  unpruned.dominance_pruning = false;
  unpruned.checksum_tables = true;
  const std::optional<DpSolution> un = core::solve_dp(unpruned, ws);

  // --- differential oracle ---
  if (options.run_reference) {
    std::optional<ReferenceSolution> ref = solve_reference_dp(unpruned);
    if (ref && options.inject == Fault::kCostTamper) {
      ref->best_cost_mah += 1.0;
      ref->table_checksum ^= 0xDEADBEEFull;
    }
    if (ref.has_value() != un.has_value()) {
      rep.add("differential.feasibility")
          << "reference feasible=" << ref.has_value()
          << " but production feasible=" << un.has_value();
      rep.commit();
    } else if (ref) {
      if (ref->table_checksum != un->stats.table_checksum) {
        rep.add("differential.checksum")
            << std::hex << "reference table checksum " << ref->table_checksum
            << " != production " << un->stats.table_checksum;
        rep.commit();
      }
      if (ref->best_cost_mah != un->stats.best_cost_mah) {
        rep.add("differential.cost") << "reference best cost " << ref->best_cost_mah
                                     << " != production " << un->stats.best_cost_mah;
        rep.commit();
      }
      if (!profiles_bit_identical(ref->profile, un->profile)) {
        rep.add("differential.profile") << "reference profile differs from production";
        rep.commit();
      }
    }
  }

  // --- solver identity: vectorized vs scalar kernel ---
  if (options.run_simd_identity) check_simd_identity(rep, unpruned, ws, un);

  // --- pruned solve (forced on, whatever the spec says) ---
  DpProblem pruned = base;
  pruned.dominance_pruning = true;
  const std::optional<DpSolution> pr = core::solve_dp(pruned, ws);

  if (pr.has_value() != un.has_value()) {
    rep.add("pruning.feasibility") << "pruned feasible=" << pr.has_value()
                                   << " but unpruned feasible=" << un.has_value();
    rep.commit();
  } else if (pr) {
    const double cp = pr->stats.best_cost_mah;
    const double cu = un->stats.best_cost_mah;
    if (std::abs(cp - cu) > 1e-4 + 1e-6 * std::abs(cu)) {
      rep.add("pruning.cost") << "pruned best cost " << cp << " != unpruned " << cu;
      rep.commit();
    }
  }

  const std::optional<DpSolution>& spec_sol = base.dominance_pruning ? pr : un;
  if (!spec_sol) {
    report.feasible = false;
    return report;
  }
  report.feasible = true;
  report.best_cost_mah = spec_sol->stats.best_cost_mah;
  report.trip_time_s = spec_sol->profile.trip_time();

  // --- objective re-costing against the true events ---
  {
    const std::optional<double> recost = recost_profile(*scenario, spec_sol->profile);
    if (!recost) {
      rep.note("objective.recost", "profile not walkable on the solver grid");
    } else if (std::abs(*recost - spec_sol->stats.best_cost_mah) >
               0.5 + 1e-4 * std::abs(spec_sol->stats.best_cost_mah)) {
      rep.add("objective.recost") << "replayed objective " << *recost
                                  << " mAh != reported best cost "
                                  << spec_sol->stats.best_cost_mah << " mAh";
      rep.commit();
    }
  }

  // Profile under test for the plan-level checks; tampered copies let the
  // harness prove those checks can fire.
  PlannedProfile profile = spec_sol->profile;
  if (options.inject == Fault::kAccelTamper || options.inject == Fault::kEnergyTamper) {
    std::vector<PlanNode> nodes = profile.nodes();
    if (nodes.size() > 2) {
      if (options.inject == Fault::kAccelTamper) {
        nodes[nodes.size() / 2].speed_ms += 4.0;
      } else {
        for (std::size_t n = nodes.size() / 2; n < nodes.size(); ++n) {
          nodes[n].energy_mah += 120.0;
        }
      }
    }
    profile = PlannedProfile(std::move(nodes));
  }

  check_feasibility(rep, *scenario, profile);

  // --- signal-window compliance (against the true events) ---
  bool all_compliant = true;
  bool any_enforced = false;
  const double ds = scenario->grid_ds();
  for (const LayerEvent& e : scenario->events()) {
    if (e.type != LayerEvent::Type::kSignal || !e.enforce_windows) continue;
    any_enforced = true;
    const double pos = static_cast<double>(e.layer) * ds;
    const double t_cross = profile.departure_time_at(pos);
    if (!core::in_any_window(e.windows, t_cross)) {
      all_compliant = false;
      if (spec.planner.penalty.mode == core::PenaltyMode::kHard) {
        rep.add("compliance.hard") << "hard-penalty plan crosses layer " << e.layer << " at "
                                   << t_cross << " s outside every enforced window";
        rep.commit();
      }
    }
  }
  if (any_enforced) {
    // Cross-solve with hard windows: if the plan is compliant its cost must
    // match the compliant optimum; if not, violating must have been no more
    // expensive than complying.
    DpProblem hard = scenario->problem();
    hard.penalty.mode = core::PenaltyMode::kHard;
    hard.checksum_tables = false;
    const std::optional<DpSolution> hard_sol = core::solve_dp(hard, ws);
    const double c = spec_sol->stats.best_cost_mah;
    if (!hard_sol) {
      if (all_compliant && options.inject == Fault::kNone) {
        rep.add("compliance.hard-agreement")
            << "plan is window-compliant but the hard-mode solve found no compliant trajectory";
        rep.commit();
      }
    } else if (all_compliant && options.inject == Fault::kNone) {
      if (std::abs(c - hard_sol->stats.best_cost_mah) > 1e-3 + 1e-6 * std::abs(c)) {
        rep.add("compliance.cost-equality")
            << "compliant plan cost " << c << " mAh != hard-mode optimum "
            << hard_sol->stats.best_cost_mah << " mAh";
        rep.commit();
      }
    } else if (!all_compliant && spec.planner.penalty.mode != core::PenaltyMode::kHard &&
               options.inject == Fault::kNone) {
      if (c > hard_sol->stats.best_cost_mah + 1e-3) {
        rep.add("compliance.penalty-worth")
            << "non-compliant plan cost " << c << " mAh exceeds the compliant optimum "
            << hard_sol->stats.best_cost_mah << " mAh: the penalty was not worth paying";
        rep.commit();
      }
    }
  }

  // --- energy accounting ---
  {
    const road::Route& route = scenario->corridor().route;
    const double annotated = profile.total_energy_mah();
    const double integrated = integrate_profile_energy(route, scenario->energy(), profile);
    if (std::abs(annotated - integrated) > 10.0 + 0.03 * std::abs(integrated)) {
      rep.add("energy.integration") << "annotated trip energy " << annotated
                                    << " mAh vs sub-sampled integration " << integrated << " mAh";
      rep.commit();
    }
    const core::ProfileEvaluation eval =
        core::evaluate_cycle(scenario->energy(), route, profile.to_drive_cycle(0.5));
    if (std::abs(annotated - eval.energy.charge_mah) > 30.0 + 0.12 * std::abs(annotated)) {
      rep.add("energy.cycle-eval") << "annotated trip energy " << annotated
                                   << " mAh vs drive-cycle evaluation " << eval.energy.charge_mah
                                   << " mAh";
      rep.commit();
    }
    if (std::abs(eval.trip_time_s - profile.trip_time()) > 2.0) {
      rep.add("energy.cycle-duration") << "drive-cycle duration " << eval.trip_time_s
                                       << " s vs planned trip time " << profile.trip_time() << " s";
      rep.commit();
    }
  }

  // --- closed-loop microsim replay on an empty road ---
  if (options.run_replay) {
    sim::MicrosimConfig cfg;
    cfg.seed = spec.seed | 1;
    sim::Microsim msim(scenario->corridor(), cfg,
                       std::make_shared<traffic::ConstantArrivalRate>(VehiclesPerSecond(0.0)));
    msim.run_until(spec.depart_time_s);

    const ev::VehicleParams& vp = scenario->energy().params();
    sim::DriverParams ego;
    ego.desired_speed_ms = scenario->corridor().route.max_speed_limit();
    ego.accel_ms2 = vp.max_acceleration;
    ego.decel_ms2 = std::max(1.0, -vp.min_acceleration);
    ego.sigma = 0.0;

    const double timeout =
        2.0 * profile.trip_time() + 90.0 * static_cast<double>(scenario->corridor().lights.size()) +
        120.0;
    const sim::ExecutionResult run =
        sim::execute_planned_profile(msim, profile.target_speed_fn(), 0.0,
                                     scenario->corridor().length(), timeout, ego);
    if (msim.has_collision()) {
      rep.note("replay.collision", "vehicles overlap after executing the plan");
    }
    if (!run.completed) {
      rep.add("replay.incomplete") << "ego did not reach the corridor end within " << timeout
                                   << " s of sim time";
      rep.commit();
    } else if (any_enforced && all_compliant && options.inject == Fault::kNone) {
      const double replay_time = run.finish_time_s - run.start_time_s;
      if (std::abs(replay_time - profile.trip_time()) > 0.35 * profile.trip_time() + 60.0) {
        rep.add("replay.trip-time") << "replayed trip took " << replay_time << " s vs planned "
                                    << profile.trip_time() << " s";
        rep.commit();
      }
      const core::ProfileEvaluation eval =
          core::evaluate_cycle(scenario->energy(), scenario->corridor().route, run.cycle);
      const double planned = profile.total_energy_mah();
      if (std::abs(eval.energy.charge_mah - planned) > 100.0 + 0.30 * std::abs(planned)) {
        rep.add("replay.energy") << "replayed trip energy " << eval.energy.charge_mah
                                 << " mAh vs planned " << planned << " mAh";
        rep.commit();
      }
    }
  }

  return report;
}

std::string report_to_string(const CheckReport& report) {
  std::ostringstream out;
  out.precision(12);
  out << "seed " << report.seed << ": ";
  if (!report.feasible) {
    out << "infeasible";
  } else {
    out << "cost " << report.best_cost_mah << " mAh, trip " << report.trip_time_s << " s";
  }
  if (report.ok()) {
    out << ", ok\n";
  } else {
    out << ", " << report.violations.size() << " violation(s)\n";
    for (const Violation& v : report.violations) {
      out << "  [" << v.invariant << "] " << v.detail << "\n";
    }
  }
  return out.str();
}

}  // namespace evvo::check
