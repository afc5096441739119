#include "traffic/queue_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"

namespace evvo::traffic {

QueueModel::QueueModel(VmParams params, DischargeModel discharge)
    : params_(params), discharge_(discharge), vm_(params) {}

double QueueModel::discharged_length(Seconds tau_q, const CyclePhases& phases) const {
  const double tau = tau_q.value();  // .value() seam: raw SI internals below
  switch (discharge_) {
    case DischargeModel::kVmAcceleration:
      return vm_.discharged_length(tau, phases);
    case DischargeModel::kInstantMinSpeed:
      return tau > phases.red_s ? params_.min_speed_ms * (tau - phases.red_s) : 0.0;
  }
  return 0.0;  // unreachable
}

double QueueModel::queue_length_m(Seconds tau, const CyclePhases& phases,
                                  VehiclesPerSecond arrival, Meters initial_queue) const {
  const double arrival_veh_s = arrival.value();
  const double initial_queue_m = initial_queue.value();
  // Written so that NaN fails the check instead of passing it.
  if (!(arrival_veh_s >= 0.0)) throw std::invalid_argument("QueueModel: arrival rate must be >= 0");
  if (initial_queue_m < 0.0) throw std::invalid_argument("QueueModel: initial queue must be >= 0");
  const double t = clamp(tau.value(), 0.0, phases.cycle());
  const double arrivals_m = params_.spacing_m * arrival_veh_s * t;
  return std::max(0.0, initial_queue_m + arrivals_m - discharged_length(Seconds(t), phases));
}

double QueueModel::queue_vehicles(Seconds tau, const CyclePhases& phases,
                                  VehiclesPerSecond arrival, Meters initial_queue) const {
  return queue_length_m(tau, phases, arrival, initial_queue) / params_.spacing_m;
}

std::optional<double> QueueModel::clear_time(const CyclePhases& phases, VehiclesPerSecond arrival,
                                             Meters initial_queue) const {
  const double arrival_veh_s = arrival.value();
  const double initial_queue_m = initial_queue.value();
  const double d_vin = params_.spacing_m * arrival_veh_s;  // queue growth rate [m/s]
  const double t_red = phases.red_s;
  const double t_end = phases.cycle();
  if (initial_queue_m <= 0.0 && arrival_veh_s <= 0.0) return t_red;  // nothing ever queued

  if (discharge_ == DischargeModel::kInstantMinSpeed) {
    // Solve L0 + d*Vin*t - v_min*(t - t_red) = 0.
    if (params_.min_speed_ms <= d_vin) return std::nullopt;  // oversaturated
    const double t_star =
        (initial_queue_m + params_.min_speed_ms * t_red) / (params_.min_speed_ms - d_vin);
    return t_star <= t_end ? std::optional<double>(std::max(t_star, t_red)) : std::nullopt;
  }

  // VM discharge. Phase (ii), acceleration: L0 + d*Vin*(t_red + x) = a/2 * x^2
  // with x = t - t_red in [0, v_min/a_max].
  const double a = params_.max_accel_ms2;
  const double c0 = initial_queue_m + d_vin * t_red;  // queue length at green onset
  double x = 0.0;
  if (largest_real_root(0.5 * a, -d_vin, -c0, x) && x >= 0.0 &&
      x <= params_.min_speed_ms / a) {
    const double t_star = t_red + x;
    return t_star <= t_end ? std::optional<double>(t_star) : std::nullopt;
  }
  // Phase (iii), constant v_min: L0 + d*Vin*t - v_min^2/(2a) - v_min*(t - t1) = 0
  // with t1 = t_red + v_min/a.
  if (params_.min_speed_ms <= d_vin) return std::nullopt;  // oversaturated
  const double t1 = t_red + params_.min_speed_ms / a;
  const double numerator = initial_queue_m - params_.min_speed_ms * params_.min_speed_ms / (2.0 * a) +
                           params_.min_speed_ms * t1;
  const double t_star = numerator / (params_.min_speed_ms - d_vin);
  if (t_star < t1 - 1e-9 || t_star > t_end) return std::nullopt;
  return std::max(t_star, t1);
}

double QueueModel::residual_queue_m(const CyclePhases& phases, VehiclesPerSecond arrival,
                                    Meters initial_queue) const {
  if (clear_time(phases, arrival, initial_queue).has_value()) return 0.0;
  return queue_length_m(Seconds(phases.cycle()), phases, arrival, initial_queue);
}

std::vector<double> QueueModel::queue_profile(const CyclePhases& phases, VehiclesPerSecond arrival,
                                              Seconds dt_q, Meters initial_queue) const {
  const double dt = dt_q.value();
  if (dt <= 0.0) throw std::invalid_argument("QueueModel::queue_profile: dt must be positive");
  std::vector<double> out;
  for (double t = 0.0; t <= phases.cycle() + 1e-9; t += dt) {
    out.push_back(queue_length_m(Seconds(t), phases, arrival, initial_queue));
  }
  return out;
}

}  // namespace evvo::traffic
