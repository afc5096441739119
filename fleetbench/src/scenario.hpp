// The benchmark's fixed world and its seeded traffic.
//
// World: the paper's US-25 corridor planned with the queue-aware policy,
// against the hourly demand an SAE forecaster predicts for a test week
// (logical time 0 = Monday 00:00 of that week). The forecast uses fixed
// seeds, so every run plans against the same demand; only the request
// streams depend on --seed.
//
// Traffic: hot slots are phase-congruent cache identities (departure phases
// and quantizer-exact mid-route states in one demand hour) that set-up warms;
// cold keys are identities the service has never seen, found by asking the
// service where a candidate request routes (PlanService::slot_for_*), so
// "never seen" is exact rather than probabilistic.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cloud/plan_service.hpp"
#include "common/random.hpp"
#include "core/planner.hpp"
#include "road/corridor.hpp"
#include "traffic/queue_predictor.hpp"

namespace evvo::fleetbench {

/// One fleet request before it reaches the service.
struct Request {
  bool replan = false;
  int vehicle = 0;
  double time_s = 0.0;      ///< logical request (departure) time
  double position_m = 0.0;  ///< replan only
  double speed_ms = 0.0;    ///< replan only
};

/// An open-loop request: due `due_s` seconds after the timed window opens.
struct TimedRequest {
  double due_s = 0.0;
  Request request;
};

enum class LoopKind { kOpen, kClosed };

/// A workload of record. Open loops send on a Poisson schedule regardless
/// of replies; the closed loop lets each vehicle wait for its reply.
struct WorkloadSpec {
  std::string_view name;
  LoopKind loop = LoopKind::kOpen;
  double rate_rps = 0.0;             ///< open: Poisson arrival rate
  double replan_share = 0.0;         ///< open: mid-route replans among hot requests
  double zipf_s = 1.1;               ///< open: skew over the hot slots
  unsigned miss_burst = 0;           ///< open: never-seen keys per platoon (0 = none)
  unsigned burst_hits = 0;           ///< open: hot requests per platoon
  unsigned burst_every = 0;          ///< open: every this-many-th arrival is a platoon
  unsigned vehicles_per_client = 0;  ///< closed: vehicles each client thread drives
  unsigned cohort_per_client = 0;    ///< closed: of those, vehicles per cohort
  double replan_interval_s = 0.0;    ///< closed: logical seconds between replans
};

std::span<const WorkloadSpec> workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// Threads the load may use: generator + clients <= nproc - 1. DP solves
/// run on the client thread that leads them (DpResolution::threads = 1), and
/// the service's materialize pool is disabled (CacheConfig::batch_threads =
/// 1), so no other thread does work.
struct ThreadBudget {
  unsigned nproc = 1;
  unsigned generator = 0;
  unsigned clients = 1;
  unsigned dp_threads = 1;
  unsigned batch_threads = 1;
};
ThreadBudget thread_budget(LoopKind loop);
unsigned online_cpus();

/// The service under test and everything an oracle needs to re-solve its
/// keys independently.
struct Scenario {
  road::Corridor corridor;
  core::PlannerConfig planner_config;
  std::shared_ptr<const traffic::ArrivalRateProvider> demand;
  std::unique_ptr<cloud::PlanService> service;
  double sae_fit_s = 0.0;

  /// A planner with its own workspace pool: solves through it share no
  /// state with the service's planner.
  core::VelocityPlanner fresh_planner() const;
};

/// Fits the SAE forecaster and returns the predicted test-week demand
/// (per-lane veh/h, hourly steps). `fit_s` receives the fit's wall time.
std::shared_ptr<const traffic::ArrivalRateProvider> forecast_demand(double& fit_s);

/// Builds the service with the budget's thread counts. Does not warm it.
Scenario make_scenario(const ThreadBudget& budget);

/// A cache identity as the benchmark sees it: (phase bin, demand bin,
/// layer, velocity level) from PlanService::RequestSlot.
using KeyTuple = std::tuple<long, long, long, long>;
KeyTuple key_of(const cloud::PlanService& service, const Request& request);

/// Demand hour whose slots are the hot set (Tuesday 10:00 of the test week).
inline constexpr int kHotHour = 34;

/// The hot slots: canonical requests at the hot hour's first epoch. Set-up
/// serves each once; the open-loop mix draws only these identities.
struct HotSlots {
  std::vector<Request> plans;
  std::vector<Request> replans;
};
HotSlots hot_slots();

/// Seeded open-loop stream covering [0, seconds): Poisson arrivals at the
/// workload's rate, each a Zipf draw over the hot slots (replayed at later
/// epochs of the hot hour, jittered inside their bins). Every burst_every-th
/// arrival is instead a platoon: miss_burst keys absent from `used` (which
/// the stream then records) plus burst_hits hot requests, all due at once.
/// Evenly spaced platoons fix the miss count; a coin per request would let
/// it, and every latency it drives, vary with the seed.
std::vector<TimedRequest> open_loop_stream(const WorkloadSpec& spec, const cloud::PlanService& service,
                                           std::uint64_t seed, double seconds,
                                           std::set<KeyTuple>& used);

/// Where a vehicle following `profile` stands at time `t_s`: the last plan
/// node it has reached (the first node before departure). Plan nodes lie on
/// the solver grid and on a feasible path, so a replan from them always has
/// a solution; a state between nodes, snapped to the grid, may not (it can
/// need more braking than the vehicle has before a stop sign).
struct VehicleState {
  double position_m = 0.0;
  double speed_ms = 0.0;
};
VehicleState state_at(const core::PlannedProfile& profile, double t_s);

}  // namespace evvo::fleetbench
