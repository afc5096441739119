// Microscopic single-lane corridor traffic simulator - the SUMO substitute.
//
// Background vehicles are inserted upstream by a (possibly time-varying)
// Poisson process, follow each other with the Krauss model (SUMO's default),
// obey the fixed-time signals, and turn off the corridor at each signal with
// probability (1 - gamma). The ego EV is a distinguished vehicle whose speed
// can be commanded step-by-step through the TraCI-style client; commands are
// clamped by car-following safety and red lights, exactly as SUMO clamps
// TraCI setSpeed requests, which is how the paper derives its "velocity
// profile from SUMO" (Fig. 6).
//
// Stop signs on the corridor govern the ego's route (minor-movement sign);
// through traffic is not signed - see DESIGN.md. Arrival volumes quoted by
// the paper are multi-lane totals; `lane_equivalent_count` divides them into
// this single-lane world.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "road/corridor.hpp"
#include "sim/vehicle.hpp"
#include "traffic/queue_predictor.hpp"

namespace evvo::sim {

/// Which car-following law background vehicles use.
enum class CarFollowing {
  kKrauss,  ///< SUMO's default (used throughout the paper reproduction)
  kIdm,     ///< Intelligent Driver Model (robustness checks)
};

struct MicrosimConfig {
  double step_s = 0.5;
  CarFollowing car_following = CarFollowing::kKrauss;
  double insertion_point_m = -300.0;  ///< upstream spawn location
  double exit_margin_m = 100.0;       ///< vehicles are removed past corridor end + margin
  double lane_equivalent_count = 2.0; ///< divides multi-lane demand into this lane
  double straight_ratio = 0.7636;     ///< gamma: share continuing straight at each signal
  double halt_speed_ms = 1.5;         ///< below ~5 km/h counts as queued (SUMO queue convention)
  double queue_scan_window_m = 400.0; ///< how far upstream of a light queues are measured
  std::uint64_t seed = 1;
  DriverParams background_driver{};

  void validate() const;
};

/// Aggregate counters for tests and experiment logs.
struct [[nodiscard]] MicrosimStats {
  long inserted = 0;
  long removed_at_exit = 0;
  long turned_off = 0;
  long insertion_blocked = 0;  ///< Poisson arrivals that found no safe gap
};

class Microsim {
 public:
  Microsim(road::Corridor corridor, MicrosimConfig config,
           std::shared_ptr<const traffic::ArrivalRateProvider> demand);

  const road::Corridor& corridor() const { return corridor_; }
  const MicrosimConfig& config() const { return config_; }
  double time() const { return time_s_; }
  const MicrosimStats& stats() const { return stats_; }

  /// Advances one time step.
  void step();

  /// Runs until sim time >= t.
  void run_until(double t);

  /// Inserts the ego vehicle at `position_m` with zero speed; returns its id.
  /// Only one ego may exist at a time.
  int spawn_ego(double position_m, const DriverParams& driver);

  /// Removes the ego (when its trip ends).
  void remove_ego();

  /// Commands the ego's speed for subsequent steps (TraCI setSpeed semantics:
  /// clamped by safety and red lights). Negative releases the command.
  void command_ego_speed(double speed_ms);

  const SimVehicle* ego() const;
  const SimVehicle* find(int id) const;
  const std::vector<SimVehicle>& vehicles() const { return vehicles_; }

  /// Measured queue at a signal: contiguous chain of slow vehicles upstream
  /// of the stop line. Returns (vehicle count, queue length in meters).
  /// `speed_threshold_ms` < 0 uses the config's halt speed (standing queue);
  /// passing ~v_min instead counts vehicles that have not yet discharged,
  /// which is the QL model's queue definition (Eq. 6).
  std::pair<int, double> measured_queue(std::size_t light_index,
                                        double speed_threshold_ms = -1.0) const;

  /// True if any pair of vehicles overlaps (test invariant; should never happen).
  bool has_collision() const;

 private:
  void maybe_insert_background();
  double desired_speed(const SimVehicle& v) const;
  double safe_speed_bound(const SimVehicle& v, const SimVehicle* leader) const;
  void apply_regulatory_stops(SimVehicle& v, double& bound, double& desired);
  void update_speeds();
  void move_and_cull();

  road::Corridor corridor_;
  MicrosimConfig config_;
  std::shared_ptr<const traffic::ArrivalRateProvider> demand_;
  Rng rng_;
  std::vector<SimVehicle> vehicles_;  ///< sorted by position, descending (leader first)
  std::vector<double> next_speeds_;
  double time_s_ = 0.0;
  double next_arrival_s_ = -1.0;
  int next_id_ = 0;
  int ego_id_ = -1;
  MicrosimStats stats_;
};

}  // namespace evvo::sim
