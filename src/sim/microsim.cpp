#include "sim/microsim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "sim/idm.hpp"
#include "sim/krauss.hpp"

namespace evvo::sim {

namespace {
constexpr double kStopLineBuffer_m = 1.0;   ///< vehicles halt this far before the line
constexpr double kSignalLookahead_m = 300.0;
constexpr double kStopSignDwellZone_m = 3.0;
}  // namespace

void MicrosimConfig::validate() const {
  if (step_s <= 0.0) throw std::invalid_argument("MicrosimConfig: step must be positive");
  if (insertion_point_m >= 0.0)
    throw std::invalid_argument("MicrosimConfig: insertion point must be upstream of the origin");
  if (lane_equivalent_count <= 0.0)
    throw std::invalid_argument("MicrosimConfig: lane equivalent count must be positive");
  if (straight_ratio <= 0.0 || straight_ratio > 1.0)
    throw std::invalid_argument("MicrosimConfig: straight ratio must be in (0, 1]");
}

Microsim::Microsim(road::Corridor corridor, MicrosimConfig config,
                   std::shared_ptr<const traffic::ArrivalRateProvider> demand)
    : corridor_(std::move(corridor)), config_(config), demand_(std::move(demand)), rng_(config.seed) {
  config_.validate();
  if (!demand_) throw std::invalid_argument("Microsim: null demand provider");
}

void Microsim::run_until(double t) {
  while (time_s_ < t - 1e-9) step();
}

void Microsim::step() {
  maybe_insert_background();
  update_speeds();
  move_and_cull();
  time_s_ += config_.step_s;
}

void Microsim::maybe_insert_background() {
  const double rate_veh_s =
      per_hour_to_per_second(demand_->arrival_rate_veh_h(Seconds(time_s_))) /
      config_.lane_equivalent_count;
  if (rate_veh_s <= 0.0) {
    next_arrival_s_ = -1.0;  // re-seed the arrival process when demand resumes
    return;
  }
  if (next_arrival_s_ < 0.0) {
    next_arrival_s_ = time_s_ + rng_.exponential(rate_veh_s);
  }
  while (next_arrival_s_ <= time_s_) {
    // Attempt an insertion at the upstream spawn point.
    const SimVehicle* tail = vehicles_.empty() ? nullptr : &vehicles_.back();
    DriverParams driver = config_.background_driver;
    // Mild heterogeneity keeps platoons from being perfectly uniform.
    driver.speed_factor *= rng_.uniform(0.92, 1.08);
    driver.accel_ms2 *= rng_.uniform(0.9, 1.1);
    bool inserted = false;
    const double spawn = config_.insertion_point_m;
    const double gap = tail ? tail->rear_position() - spawn : 1e9;
    if (gap > driver.min_gap_m + 1.0) {
      SimVehicle v;
      v.id = next_id_++;
      v.position_m = spawn;
      v.driver = driver;
      v.depart_time_s = time_s_;
      const double limit = corridor_.route.speed_limit_at(std::max(0.0, spawn)) * driver.speed_factor;
      const double safe = tail ? krauss_safe_speed(std::max(0.0, gap - driver.min_gap_m),
                                                   tail->speed_ms, driver.decel_ms2,
                                                   driver.reaction_time_s)
                               : limit;
      v.speed_ms = std::min(limit, safe);
      vehicles_.push_back(v);
      ++stats_.inserted;
      inserted = true;
    }
    if (!inserted) ++stats_.insertion_blocked;
    const double next_rate =
        per_hour_to_per_second(demand_->arrival_rate_veh_h(Seconds(next_arrival_s_))) /
        config_.lane_equivalent_count;
    if (next_rate <= 0.0) {
      next_arrival_s_ = -1.0;
      break;
    }
    next_arrival_s_ += rng_.exponential(next_rate);
  }
}

double Microsim::desired_speed(const SimVehicle& v) const {
  if (v.is_ego && v.commanded_speed_ms >= 0.0) return v.commanded_speed_ms;
  const double limit = corridor_.route.speed_limit_at(std::max(0.0, v.position_m));
  return std::min(v.driver.desired_speed_ms, limit * v.driver.speed_factor);
}

double Microsim::safe_speed_bound(const SimVehicle& v, const SimVehicle* leader) const {
  if (!leader) return 1e9;
  const double gap = leader->rear_position() - v.position_m - v.driver.min_gap_m;
  return krauss_safe_speed(gap, leader->speed_ms, v.driver.decel_ms2, v.driver.reaction_time_s);
}

void Microsim::apply_regulatory_stops(SimVehicle& v, double& bound, double& desired) {
  // Red lights: the nearest signal ahead within lookahead acts as a wall.
  for (const auto& light : corridor_.lights) {
    const double dist = light.position() - v.position_m;
    if (dist < 0.0 || dist > kSignalLookahead_m) continue;
    if (light.is_red(time_s_)) {
      bound = std::min(bound, krauss_safe_speed_for_stop(dist - kStopLineBuffer_m, v.driver.decel_ms2,
                                                         v.driver.reaction_time_s));
    }
    break;  // only the nearest signal binds
  }
  // Stop signs bind the ego only (minor-movement sign; see DESIGN.md).
  if (!v.is_ego || v.next_stop_sign >= corridor_.stop_signs.size()) return;
  const road::StopSign& sign = corridor_.stop_signs[v.next_stop_sign];
  const double dist = sign.position_m - v.position_m;
  if (dist < -0.5) {  // somehow passed: mark serviced
    v.next_stop_sign++;
    return;
  }
  if (v.stop_wait_until_s >= 0.0) {
    if (time_s_ >= v.stop_wait_until_s) {
      v.stop_wait_until_s = -1.0;
      v.next_stop_sign++;
    } else {
      bound = 0.0;
      desired = 0.0;
    }
    return;
  }
  bound = std::min(bound, krauss_safe_speed_for_stop(std::max(0.0, dist), v.driver.decel_ms2,
                                                     v.driver.reaction_time_s));
  if (dist <= kStopSignDwellZone_m && v.speed_ms < 0.1) {
    v.stop_wait_until_s = time_s_ + sign.min_stop_s;
    bound = 0.0;
    desired = 0.0;
  }
}

void Microsim::update_speeds() {
  next_speeds_.assign(vehicles_.size(), 0.0);
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    SimVehicle& v = vehicles_[i];
    const SimVehicle* leader = i > 0 ? &vehicles_[i - 1] : nullptr;
    double desired = desired_speed(v);
    double next;
    if (config_.car_following == CarFollowing::kIdm && !v.is_ego) {
      // IDM: the binding obstacle is whichever of {leader, nearest red light}
      // is closest; red lights act as standing leaders at the stop line.
      double gap = leader ? leader->rear_position() - v.position_m : 1e9;
      double lead_speed = leader ? leader->speed_ms : v.speed_ms;
      for (const auto& light : corridor_.lights) {
        const double dist = light.position() - v.position_m;
        if (dist < 0.0 || dist > kSignalLookahead_m) continue;
        if (light.is_red(time_s_) && dist - kStopLineBuffer_m < gap) {
          gap = dist - kStopLineBuffer_m;
          lead_speed = 0.0;
        }
        break;
      }
      next = idm_following_speed(v.driver, v.speed_ms, desired, gap, v.speed_ms - lead_speed,
                                 config_.step_s);
    } else {
      double bound = safe_speed_bound(v, leader);
      apply_regulatory_stops(v, bound, desired);
      next = krauss_following_speed(v.driver, v.speed_ms, desired, bound, config_.step_s);
      // Dawdling (background drivers only; the ego executes plans exactly).
      if (!v.is_ego && v.driver.sigma > 0.0 && next > 0.0) {
        next = std::max(0.0,
                        next - v.driver.sigma * v.driver.accel_ms2 * config_.step_s * rng_.uniform());
      }
    }
    next_speeds_[i] = next;
  }
}

void Microsim::move_and_cull() {
  const double end = corridor_.length() + config_.exit_margin_m;
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    vehicles_[i].speed_ms = next_speeds_[i];
    vehicles_[i].position_m += next_speeds_[i] * config_.step_s;
  }
  // Enforce no-overtaking order (numerically possible only via rounding).
  for (std::size_t i = 1; i < vehicles_.size(); ++i) {
    const double cap = vehicles_[i - 1].rear_position() - 0.1;
    if (vehicles_[i].position_m > cap) vehicles_[i].position_m = cap;
  }
  std::vector<SimVehicle> kept;
  kept.reserve(vehicles_.size());
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    SimVehicle& v = vehicles_[i];
    const double old_pos = v.position_m - v.speed_ms * config_.step_s;
    bool remove = false;
    if (v.position_m > end && !v.is_ego) {
      ++stats_.removed_at_exit;
      remove = true;
    } else if (!v.is_ego) {
      for (const auto& light : corridor_.lights) {
        if (old_pos <= light.position() && v.position_m > light.position()) {
          if (rng_.bernoulli(1.0 - config_.straight_ratio)) {
            ++stats_.turned_off;
            remove = true;
          }
          break;
        }
      }
    }
    if (!remove) kept.push_back(v);
  }
  vehicles_ = std::move(kept);
}

int Microsim::spawn_ego(double position_m, const DriverParams& driver) {
  if (ego_id_ >= 0) throw std::logic_error("Microsim: ego already present");
  SimVehicle ego;
  ego.id = next_id_++;
  ego.position_m = position_m;
  ego.speed_ms = 0.0;
  ego.driver = driver;
  ego.is_ego = true;
  ego.depart_time_s = time_s_;
  const auto insert_at = std::lower_bound(
      vehicles_.begin(), vehicles_.end(), position_m,
      [](const SimVehicle& v, double pos) { return v.position_m > pos; });
  ego_id_ = ego.id;
  vehicles_.insert(insert_at, ego);
  return ego_id_;
}

void Microsim::remove_ego() {
  if (ego_id_ < 0) return;
  std::erase_if(vehicles_, [this](const SimVehicle& v) { return v.id == ego_id_; });
  ego_id_ = -1;
}

void Microsim::command_ego_speed(double speed_ms) {
  for (SimVehicle& v : vehicles_) {
    if (v.id == ego_id_) {
      v.commanded_speed_ms = speed_ms;
      return;
    }
  }
  throw std::logic_error("Microsim::command_ego_speed: no ego present");
}

const SimVehicle* Microsim::ego() const { return find(ego_id_); }

const SimVehicle* Microsim::find(int id) const {
  if (id < 0) return nullptr;
  for (const SimVehicle& v : vehicles_) {
    if (v.id == id) return &v;
  }
  return nullptr;
}

std::pair<int, double> Microsim::measured_queue(std::size_t light_index,
                                                double speed_threshold_ms) const {
  const double line = corridor_.lights.at(light_index).position();
  const double threshold =
      speed_threshold_ms < 0.0 ? config_.halt_speed_ms : speed_threshold_ms;
  int count = 0;
  double tail_rear = line;
  double expected_front = line;  // where the next queued vehicle's front should be
  for (const SimVehicle& v : vehicles_) {
    if (v.position_m > line + 0.5) continue;                      // beyond the line
    if (v.position_m < line - config_.queue_scan_window_m) break; // out of scan range
    if (v.speed_ms >= threshold) {
      if (count > 0) break;  // a moving vehicle inside the chain ends the queue
      continue;              // movers between the line and the first halted one
    }
    // Contiguity: the vehicle's front must be within a plausible spacing of
    // the previous queue tail.
    if (expected_front - v.position_m > v.driver.length_m + v.driver.min_gap_m + 12.0) {
      if (count == 0) continue;  // an isolated halt far upstream is not this queue
      break;
    }
    ++count;
    tail_rear = v.rear_position();
    expected_front = tail_rear;
  }
  return {count, count > 0 ? line - tail_rear : 0.0};
}

bool Microsim::has_collision() const {
  for (std::size_t i = 1; i < vehicles_.size(); ++i) {
    if (vehicles_[i].position_m > vehicles_[i - 1].rear_position() + 1e-6) return true;
  }
  return false;
}

}  // namespace evvo::sim
