// Seed-reproducible scenario generation for the correctness harness.
//
// A ScenarioSpec is a fully explicit, serializable description of one
// planning problem: corridor geometry (segments with limits and grades),
// signal timings, stop signs, a time-varying arrival-rate profile, vehicle
// parameters, and the planner configuration. Specs come from two places:
//  - generate_scenario(seed): samples everything within physical bounds, so
//    `evvo_fuzz --seed N` reproduces a scenario exactly from its seed;
//  - spec_from_text / load_spec: replays a spec the failure shrinker wrote,
//    which no longer corresponds to any seed.
//
// Scenario materializes a spec into the objects the planner and the checkers
// consume (Corridor, EnergyModel, ArrivalRateProvider, LayerEvents) and wires
// up the DpProblem the solvers run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"
#include "traffic/queue_predictor.hpp"

namespace evvo::check {

/// Sampling bounds for generate_scenario. Defaults are sized so one scenario
/// checks in well under a second (the fuzz smoke runs hundreds); widen them
/// for overnight soaks.
struct ScenarioBounds {
  double min_length_m = 900.0;
  double max_length_m = 1800.0;
  int min_lights = 1;
  int max_lights = 3;
  int max_stop_signs = 1;
  double min_element_gap_m = 350.0;  ///< spacing between elements and from both ends
  double min_phase_s = 18.0;
  double max_phase_s = 42.0;
  double min_speed_limit_ms = 12.0;
  double max_speed_limit_ms = 22.0;
  double max_grade_rad = 0.03;            ///< ~3 % rolling grades (half the draws are flat)
  double min_arrival_veh_h = 80.0;
  double max_arrival_veh_h = 1400.0;
  double max_depart_s = 400.0;
  bool vary_vehicle = true;    ///< sample mass/drag/accel envelope/accessory/regen
  bool vary_policy = true;     ///< occasionally green-window or signal-oblivious
  bool vary_penalty = true;    ///< occasionally additive or hard penalty mode
  bool vary_resolution = true; ///< occasionally off-default dv/dt (incl. non-pow2 dt)
};

/// One generated scenario, explicit enough to rebuild without the seed.
struct ScenarioSpec {
  /// Generator provenance: the seed this spec was sampled from, or 0 for
  /// specs edited by hand or by the shrinker.
  std::uint64_t seed = 0;

  std::vector<road::RoadSegment> segments;
  struct SpecLight {
    double position_m = 0.0;
    double red_s = 30.0;
    double green_s = 30.0;
    double offset_s = 0.0;
  };
  std::vector<SpecLight> lights;
  std::vector<road::StopSign> stop_signs;

  /// Piecewise-constant arrival rate [veh/h]: block i applies to absolute
  /// times [i * arrival_block_s, (i+1) * arrival_block_s); the last block
  /// extends forever. Never empty.
  std::vector<double> arrival_veh_h{500.0};
  double arrival_block_s = 600.0;

  ev::VehicleParams vehicle{};
  double depart_time_s = 0.0;

  /// Planner configuration under test (resolution, penalty, policy, weights,
  /// window margins, pruning).
  core::PlannerConfig planner{};

  double corridor_length_m() const { return segments.empty() ? 0.0 : segments.back().end_m; }
};

/// Samples a well-formed spec from a seed. Same seed + same bounds => same
/// spec, bit for bit.
ScenarioSpec generate_scenario(std::uint64_t seed, const ScenarioBounds& bounds = {});

/// Text round-trip (shrinker output / --replay-spec input). The format is
/// line-based `key values...` with full double precision, so
/// spec_from_text(spec_to_text(s)) reproduces s exactly.
std::string spec_to_text(const ScenarioSpec& spec);
ScenarioSpec spec_from_text(const std::string& text);
void save_spec(const std::filesystem::path& path, const ScenarioSpec& spec);
ScenarioSpec load_spec(const std::filesystem::path& path);

/// A spec materialized into planner inputs. The DpProblem returned by
/// problem() points into this object; keep the Scenario alive while solving.
class Scenario {
 public:
  explicit Scenario(ScenarioSpec spec);

  const ScenarioSpec& spec() const { return spec_; }
  const road::Corridor& corridor() const { return corridor_; }
  const ev::EnergyModel& energy() const { return energy_; }
  const std::shared_ptr<const traffic::ArrivalRateProvider>& arrivals() const { return arrivals_; }
  /// Layer events exactly as VelocityPlanner would build them (margins and
  /// queue-aware T_q windows applied).
  const std::vector<core::LayerEvent>& events() const { return events_; }

  /// Grid distance step the solver will use (layers divide the length exactly).
  double grid_ds() const;

  /// The DpProblem the solvers run; mirrors VelocityPlanner's wiring.
  core::DpProblem problem() const;

 private:
  ScenarioSpec spec_;
  road::Corridor corridor_;
  ev::EnergyModel energy_;
  std::shared_ptr<const traffic::ArrivalRateProvider> arrivals_;
  std::vector<core::LayerEvent> events_;
};

}  // namespace evvo::check
