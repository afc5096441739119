#include "check/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/random.hpp"

namespace evvo::check {

namespace {

/// Piecewise-constant arrival rate over fixed-width time blocks (the last
/// block extends forever). Exercises time-varying queue predictions without
/// needing a full hourly volume series.
class BlockArrivalRate final : public traffic::ArrivalRateProvider {
 public:
  BlockArrivalRate(std::vector<double> veh_h, double block_s)
      : veh_h_(std::move(veh_h)), block_s_(block_s) {}

  double arrival_rate_veh_h(Seconds t) const override {
    if (veh_h_.empty()) return 0.0;
    const auto block =
        static_cast<std::size_t>(std::max(0.0, std::floor(t.value() / block_s_)));
    return veh_h_[std::min(block, veh_h_.size() - 1)];
  }

 private:
  std::vector<double> veh_h_;
  double block_s_;
};

/// Grid-cell count of the spec's DP problem (memory/time proxy).
std::size_t grid_cells(const ScenarioSpec& spec) {
  const double length = spec.corridor_length_m();
  const auto& res = spec.planner.resolution;
  const auto n_hops = static_cast<std::size_t>(std::max(1.0, std::round(length / res.ds_m)));
  double max_limit = 0.0;
  for (const road::RoadSegment& seg : spec.segments) max_limit = std::max(max_limit, seg.speed_limit_ms);
  const auto n_v = static_cast<std::size_t>(std::floor(max_limit / res.dv_ms)) + 1;
  const auto n_t = static_cast<std::size_t>(std::ceil(res.horizon_s / res.dt_s)) + 1;
  return (n_hops + 1) * n_v * n_t;
}

}  // namespace

ScenarioSpec generate_scenario(std::uint64_t seed, const ScenarioBounds& b) {
  // Seeds are mixed so neighbouring fuzz seeds do not produce correlated
  // corridors (Rng streams from adjacent raw seeds share structure).
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  ScenarioSpec spec;
  spec.seed = seed;

  const double length = rng.uniform(b.min_length_m, b.max_length_m);

  // Road segments: 1-4 stretches with independent limits; half the scenarios
  // are flat (the paper's experiments), the rest get per-segment grades.
  const int n_segments = rng.uniform_int(1, 4);
  const bool flat = rng.bernoulli(0.5);
  double cursor = 0.0;
  for (int i = 0; i < n_segments; ++i) {
    road::RoadSegment seg;
    seg.start_m = cursor;
    seg.end_m = i + 1 == n_segments
                    ? length
                    : cursor + (length - cursor) / static_cast<double>(n_segments - i);
    seg.speed_limit_ms = rng.uniform(b.min_speed_limit_ms, b.max_speed_limit_ms);
    seg.grade_rad = flat ? 0.0 : rng.uniform(-b.max_grade_rad, b.max_grade_rad);
    spec.segments.push_back(seg);
    cursor = seg.end_m;
  }

  // Regulatory elements with generous spacing and an interior margin, so
  // every element snaps to a distinct non-boundary grid layer.
  const int n_lights = rng.uniform_int(b.min_lights, b.max_lights);
  const int n_signs = rng.uniform_int(0, b.max_stop_signs);
  std::vector<double> positions;
  int attempts = 0;
  while (static_cast<int>(positions.size()) < n_lights + n_signs && attempts < 10000) {
    ++attempts;
    const double candidate = rng.uniform(b.min_element_gap_m, length - b.min_element_gap_m);
    bool ok = true;
    for (const double p : positions) ok &= std::abs(p - candidate) >= b.min_element_gap_m;
    if (ok) positions.push_back(candidate);
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (static_cast<int>(i) < n_lights) {
      ScenarioSpec::SpecLight light;
      light.position_m = positions[i];
      light.red_s = rng.uniform(b.min_phase_s, b.max_phase_s);
      light.green_s = rng.uniform(b.min_phase_s, b.max_phase_s);
      light.offset_s = rng.uniform(0.0, light.red_s + light.green_s);
      spec.lights.push_back(light);
    } else {
      spec.stop_signs.push_back(road::StopSign{positions[i], rng.uniform(1.5, 3.0)});
    }
  }
  std::sort(spec.lights.begin(), spec.lights.end(),
            [](const auto& a, const auto& c) { return a.position_m < c.position_m; });
  std::sort(spec.stop_signs.begin(), spec.stop_signs.end(),
            [](const auto& a, const auto& c) { return a.position_m < c.position_m; });

  spec.depart_time_s = rng.uniform(0.0, b.max_depart_s);
  spec.planner.resolution.horizon_s = std::round(length / 10.0 + 240.0);

  // Arrival-rate profile covering departure through horizon, one draw per
  // block; a third of the scenarios ramp (rush-hour onset) instead of jumping.
  const double span = spec.depart_time_s + spec.planner.resolution.horizon_s;
  const auto n_blocks = static_cast<std::size_t>(std::ceil(span / spec.arrival_block_s)) + 1;
  const bool ramp = rng.bernoulli(1.0 / 3.0);
  double level = rng.uniform(b.min_arrival_veh_h, b.max_arrival_veh_h);
  spec.arrival_veh_h.clear();
  for (std::size_t i = 0; i < n_blocks; ++i) {
    spec.arrival_veh_h.push_back(level);
    level = ramp ? std::min(b.max_arrival_veh_h, level * rng.uniform(1.05, 1.35))
                 : rng.uniform(b.min_arrival_veh_h, b.max_arrival_veh_h);
  }

  if (b.vary_vehicle) {
    spec.vehicle.mass_kg = rng.uniform(1000.0, 1900.0);
    spec.vehicle.frontal_area_m2 = rng.uniform(1.9, 2.8);
    spec.vehicle.drag_coefficient = rng.uniform(0.24, 0.38);
    spec.vehicle.rolling_resistance = rng.uniform(0.008, 0.022);
    spec.vehicle.max_acceleration = rng.uniform(1.8, 2.8);
    spec.vehicle.min_acceleration = rng.uniform(-2.2, -1.2);
    spec.vehicle.accessory_power_w = rng.uniform(200.0, 900.0);
    spec.vehicle.regen_efficiency = rng.bernoulli(0.3) ? rng.uniform(0.6, 1.0) : 1.0;
  }
  spec.vehicle.validate();

  if (b.vary_policy) {
    const double draw = rng.uniform();
    spec.planner.policy = draw < 0.70   ? core::SignalPolicy::kQueueAware
                          : draw < 0.85 ? core::SignalPolicy::kGreenWindow
                                        : core::SignalPolicy::kIgnoreSignals;
  }
  if (b.vary_penalty) {
    const double draw = rng.uniform();
    spec.planner.penalty.mode = draw < 0.70   ? core::PenaltyMode::kMultiplicative
                                : draw < 0.85 ? core::PenaltyMode::kAdditive
                                              : core::PenaltyMode::kHard;
    spec.planner.penalty.m = rng.uniform(200.0, 2000.0);
  }
  if (b.vary_resolution) {
    const double draw = rng.uniform();
    // dt = 0.8 exercises the solver's non-power-of-two time-binning path
    // (division instead of the reciprocal multiply).
    if (draw < 0.15) spec.planner.resolution.dt_s = 0.5;
    else if (draw < 0.25) spec.planner.resolution.dt_s = 0.8;
    if (rng.bernoulli(0.2)) spec.planner.resolution.dv_ms = 1.0;
    if (rng.bernoulli(0.15)) spec.planner.resolution.ds_m = rng.uniform(8.0, 14.0);
  }
  if (rng.bernoulli(0.15)) {
    spec.planner.window_start_margin_s = 0.0;
    spec.planner.window_end_margin_s = 0.0;
  }
  spec.planner.time_weight_mah_per_s = rng.uniform(2.0, 8.0);

  // Keep one scenario's DP grid within a fixed cell budget so fuzz runs have
  // predictable memory and wall-clock: coarsen the grid deterministically
  // until it fits.
  // Every scenario runs ~6 full DP solves (reference oracle, both pruning
  // modes, every other relaxation kernel, hard-mode cross-solve), so the budget is what keeps
  // "200 scenarios in a CI minute" honest.
  constexpr std::size_t kMaxCells = 1'200'000;
  if (grid_cells(spec) > kMaxCells) spec.planner.resolution.dt_s = 1.0;
  if (grid_cells(spec) > kMaxCells) spec.planner.resolution.dv_ms = std::max(spec.planner.resolution.dv_ms, 1.0);
  if (grid_cells(spec) > kMaxCells) spec.planner.resolution.ds_m = std::max(spec.planner.resolution.ds_m, 14.0);
  if (grid_cells(spec) > kMaxCells) spec.planner.resolution.ds_m = std::max(spec.planner.resolution.ds_m, 18.0);

  return spec;
}

std::string spec_to_text(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "evvo-scenario v1\n";
  out << "seed " << spec.seed << "\n";
  for (const road::RoadSegment& s : spec.segments) {
    out << "segment " << s.start_m << " " << s.end_m << " " << s.speed_limit_ms << " "
        << s.min_speed_ms << " " << s.grade_rad << "\n";
  }
  for (const ScenarioSpec::SpecLight& l : spec.lights) {
    out << "light " << l.position_m << " " << l.red_s << " " << l.green_s << " " << l.offset_s
        << "\n";
  }
  for (const road::StopSign& s : spec.stop_signs) {
    out << "sign " << s.position_m << " " << s.min_stop_s << "\n";
  }
  out << "arrivals " << spec.arrival_block_s;
  for (const double rate : spec.arrival_veh_h) out << " " << rate;
  out << "\n";
  const ev::VehicleParams& v = spec.vehicle;
  out << "vehicle " << v.mass_kg << " " << v.frontal_area_m2 << " " << v.drag_coefficient << " "
      << v.rolling_resistance << " " << v.battery_efficiency << " " << v.powertrain_efficiency
      << " " << v.min_acceleration << " " << v.max_acceleration << " " << v.accessory_power_w
      << " " << v.regen_efficiency << "\n";
  out << "depart " << spec.depart_time_s << "\n";
  const core::DpResolution& r = spec.planner.resolution;
  out << "resolution " << r.ds_m << " " << r.dv_ms << " " << r.dt_s << " " << r.horizon_s << "\n";
  const core::PenaltyConfig& p = spec.planner.penalty;
  out << "penalty " << static_cast<int>(p.mode) << " " << p.m << " " << p.additive_mah << " "
      << p.min_cost_mah << "\n";
  out << "policy " << static_cast<int>(spec.planner.policy) << "\n";
  out << "weights " << spec.planner.time_weight_mah_per_s << " "
      << spec.planner.smoothness_weight_mah_per_ms << "\n";
  out << "margins " << spec.planner.window_start_margin_s << " "
      << spec.planner.window_end_margin_s << "\n";
  out << "pruning " << (spec.planner.dominance_pruning ? 1 : 0) << "\n";
  return out.str();
}

ScenarioSpec spec_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "evvo-scenario v1")
    throw std::runtime_error("spec_from_text: unrecognized header '" + header + "'");
  ScenarioSpec spec;
  spec.segments.clear();
  spec.arrival_veh_h.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    const auto fail = [&](const char* what) {
      throw std::runtime_error(std::string("spec_from_text: bad '") + key + "' line: " + what);
    };
    if (key == "seed") {
      if (!(fields >> spec.seed)) fail("seed value");
    } else if (key == "segment") {
      road::RoadSegment s;
      if (!(fields >> s.start_m >> s.end_m >> s.speed_limit_ms >> s.min_speed_ms >> s.grade_rad))
        fail("5 numbers expected");
      spec.segments.push_back(s);
    } else if (key == "light") {
      ScenarioSpec::SpecLight l;
      if (!(fields >> l.position_m >> l.red_s >> l.green_s >> l.offset_s)) fail("4 numbers expected");
      spec.lights.push_back(l);
    } else if (key == "sign") {
      road::StopSign s;
      if (!(fields >> s.position_m >> s.min_stop_s)) fail("2 numbers expected");
      spec.stop_signs.push_back(s);
    } else if (key == "arrivals") {
      if (!(fields >> spec.arrival_block_s)) fail("block width expected");
      double rate = 0.0;
      while (fields >> rate) spec.arrival_veh_h.push_back(rate);
      if (spec.arrival_veh_h.empty()) fail("at least one rate expected");
    } else if (key == "vehicle") {
      ev::VehicleParams& v = spec.vehicle;
      if (!(fields >> v.mass_kg >> v.frontal_area_m2 >> v.drag_coefficient >> v.rolling_resistance >>
            v.battery_efficiency >> v.powertrain_efficiency >> v.min_acceleration >>
            v.max_acceleration >> v.accessory_power_w >> v.regen_efficiency))
        fail("10 numbers expected");
    } else if (key == "depart") {
      if (!(fields >> spec.depart_time_s)) fail("time expected");
    } else if (key == "resolution") {
      core::DpResolution& r = spec.planner.resolution;
      if (!(fields >> r.ds_m >> r.dv_ms >> r.dt_s >> r.horizon_s)) fail("4 numbers expected");
    } else if (key == "penalty") {
      int mode = 0;
      core::PenaltyConfig& p = spec.planner.penalty;
      if (!(fields >> mode >> p.m >> p.additive_mah >> p.min_cost_mah)) fail("4 numbers expected");
      p.mode = static_cast<core::PenaltyMode>(mode);
    } else if (key == "policy") {
      int policy = 0;
      if (!(fields >> policy)) fail("policy index expected");
      spec.planner.policy = static_cast<core::SignalPolicy>(policy);
    } else if (key == "weights") {
      if (!(fields >> spec.planner.time_weight_mah_per_s >>
            spec.planner.smoothness_weight_mah_per_ms))
        fail("2 numbers expected");
    } else if (key == "margins") {
      if (!(fields >> spec.planner.window_start_margin_s >> spec.planner.window_end_margin_s))
        fail("2 numbers expected");
    } else if (key == "pruning") {
      int on = 1;
      if (!(fields >> on)) fail("0/1 expected");
      spec.planner.dominance_pruning = on != 0;
    } else {
      throw std::runtime_error("spec_from_text: unknown key '" + key + "'");
    }
  }
  if (spec.segments.empty()) throw std::runtime_error("spec_from_text: no segments");
  if (spec.arrival_veh_h.empty()) spec.arrival_veh_h.push_back(0.0);
  return spec;
}

void save_spec(const std::filesystem::path& path, const ScenarioSpec& spec) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_spec: cannot open " + path.string());
  out << spec_to_text(spec);
}

ScenarioSpec load_spec(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_spec: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return spec_from_text(buffer.str());
}

namespace {

road::Corridor materialize_corridor(const ScenarioSpec& spec) {
  road::Corridor corridor{road::Route(spec.segments), {}, {}};
  for (const ScenarioSpec::SpecLight& l : spec.lights) {
    corridor.lights.emplace_back(l.position_m, l.red_s, l.green_s, l.offset_s);
  }
  corridor.stop_signs = spec.stop_signs;
  return corridor;
}

}  // namespace

Scenario::Scenario(ScenarioSpec spec)
    : spec_(std::move(spec)),
      corridor_(materialize_corridor(spec_)),
      energy_(spec_.vehicle, /*pack_voltage=*/399.0),
      arrivals_(std::make_shared<BlockArrivalRate>(spec_.arrival_veh_h, spec_.arrival_block_s)) {
  const core::VelocityPlanner planner(corridor_, energy_, spec_.planner);
  events_ = planner.build_events(Seconds(spec_.depart_time_s), arrivals_);
}

double Scenario::grid_ds() const {
  const double length = corridor_.length();
  const auto n_hops = static_cast<std::size_t>(
      std::max(1.0, std::round(length / spec_.planner.resolution.ds_m)));
  return length / static_cast<double>(n_hops);
}

core::DpProblem Scenario::problem() const {
  core::DpProblem problem;
  problem.route = &corridor_.route;
  problem.energy = &energy_;
  problem.depart_time = Seconds(spec_.depart_time_s);
  problem.resolution = spec_.planner.resolution;
  problem.penalty = spec_.planner.penalty;
  problem.time_weight_mah_per_s = spec_.planner.time_weight_mah_per_s;
  problem.smoothness_weight_mah_per_ms = spec_.planner.smoothness_weight_mah_per_ms;
  problem.dominance_pruning = spec_.planner.dominance_pruning;
  problem.events = events_;
  return problem;
}

}  // namespace evvo::check
