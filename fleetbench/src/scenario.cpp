#include "scenario.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/clock.hpp"
#include "data/synthetic_volume.hpp"
#include "ev/energy_model.hpp"
#include "traffic/traffic_predictor.hpp"

namespace evvo::fleetbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    {"hit_heavy", LoopKind::kOpen, 2000.0, 0.3, 1.1, 0, 0, 0, 0, 0, 0.0},
    {"miss_storm", LoopKind::kOpen, 150.0, 0.3, 1.1, 4, 8, 600, 0, 0, 0.0},
    {"rolling_horizon", LoopKind::kClosed, 0.0, 0.0, 0.0, 0, 0, 0, 16, 4, 13.0},
}};

constexpr int kHoursPerWeek = 168;
constexpr double kLanes = 2.0;  // the forecast is a two-lane total

/// Zipf CDF over ranks 0..n-1 with exponent s.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t sample_cdf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(cdf.size() - 1, static_cast<std::size_t>(it - cdf.begin()));
}

double hour_start(int hour) { return 3600.0 * hour; }

/// A never-seen candidate for burst number `burst`. Kind burst % 4 == 0 is
/// a departure, kinds 1-3 a replan from one of three layers. A burst holds
/// one kind, so its solves share a DP batch key and can pack into SoA lanes.
/// The layers lie near the start, so every burst solves about a full trip:
/// the bursts are one latency mode, and the p99 does not sit on the edge
/// between kinds. The burst's (non-hot) demand hour follows from its number,
/// so every seed solves against the same demand levels; the epoch in that
/// hour, the phase and the speed are drawn.
Request cold_candidate(std::size_t burst, Rng& rng) {
  int hour = static_cast<int>((37 * burst) % (kHoursPerWeek - 1));
  if (hour >= kHotHour) ++hour;
  const double time = hour_start(hour) + 60.0 * rng.uniform_int(0, 59) +
                      rng.uniform_int(1, 58) + rng.uniform(-0.3, 0.3);
  const std::size_t kind = burst % 4;
  if (kind == 0) return Request{false, 0, time, 0.0, 0.0};
  constexpr std::array<double, 3> kLayersM{100.0, 200.0, 300.0};
  const double position = kLayersM[kind - 1] + rng.uniform(-3.0, 3.0);
  const double speed = 0.5 * rng.uniform_int(12, 26) + rng.uniform(-0.2, 0.2);
  return Request{true, 0, time, position, speed};
}

}  // namespace

std::span<const WorkloadSpec> workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadBudget thread_budget(LoopKind loop) {
  ThreadBudget budget;
  budget.nproc = online_cpus();
  budget.generator = loop == LoopKind::kOpen ? 1 : 0;
  // One CPU stays free for the kernel: with every CPU busy, its housekeeping
  // preempts load threads and puts millisecond stalls into the tail.
  const unsigned used = budget.generator + 1;
  budget.clients = std::clamp(budget.nproc > used ? budget.nproc - used : 1u, 1u, 3u);
  return budget;
}

core::VelocityPlanner Scenario::fresh_planner() const {
  return core::VelocityPlanner(corridor, ev::EnergyModel{}, planner_config);
}

std::shared_ptr<const traffic::ArrivalRateProvider> forecast_demand(double& fit_s) {
  // Four training weeks and a small network keep the fit well under a
  // second; the recipe (pretrain + finetune, fixed seeds) is the paper's.
  const data::VolumeDataset ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig config;
  config.sae.hidden_dims = {16, 8};
  config.sae.pretrain_epochs = 4;
  config.sae.finetune_epochs = 24;
  traffic::SaeVolumePredictor sae(config);
  const std::uint64_t start = common::now_ns();
  sae.fit(ds.train);
  fit_s = common::seconds_between_ns(start, common::now_ns());

  std::vector<double> forecast = traffic::predict_series(sae, ds.train, ds.test);
  for (double& v : forecast) v = std::max(0.0, v / kLanes);
  return std::make_shared<traffic::SeriesArrivalRate>(
      traffic::HourlyVolumeSeries(std::move(forecast), ds.test.start_hour_of_week()));
}

Scenario make_scenario(const ThreadBudget& budget) {
  Scenario s{road::make_us25_corridor(), {}, nullptr, nullptr, 0.0};
  s.planner_config.policy = core::SignalPolicy::kQueueAware;
  s.planner_config.resolution.threads = budget.dp_threads;
  s.demand = forecast_demand(s.sae_fit_s);

  cloud::CacheConfig cache;
  cache.shards = 8;
  cache.capacity = 64;  // per shard: a miss storm evicts, the hot set never does
  cache.batch_threads = budget.batch_threads;
  s.service = std::make_unique<cloud::PlanService>(s.fresh_planner(), s.demand, cache);
  return s;
}

KeyTuple key_of(const cloud::PlanService& service, const Request& request) {
  const cloud::PlanService::RequestSlot slot =
      request.replan ? service.slot_for_replan(Meters(request.position_m),
                                               MetersPerSecond(request.speed_ms),
                                               Seconds(request.time_s))
                     : service.slot_for_plan(Seconds(request.time_s));
  return {slot.key.phase_bin, slot.key.demand_bin, slot.key.layer, slot.key.vlevel};
}

HotSlots hot_slots() {
  // Integer phases, so the +-0.3 s jitter of later epochs stays in the bin.
  HotSlots slots;
  const double base = hour_start(kHotHour);
  for (int k = 0; k < 8; ++k) {
    slots.plans.push_back(Request{false, -1, base + 2.0 + 7.0 * k, 0.0, 0.0});
  }
  constexpr std::array<double, 4> kPositionsM{600.0, 1200.0, 2600.0, 3800.0};
  int k = 0;
  for (double position : kPositionsM) {
    for (double speed : {8.0, 12.0}) {
      slots.replans.push_back(Request{true, -1, base + 5.0 + 7.0 * k, position, speed});
      ++k;
    }
  }
  return slots;
}

std::vector<TimedRequest> open_loop_stream(const WorkloadSpec& spec,
                                           const cloud::PlanService& service,
                                           std::uint64_t seed, double seconds,
                                           std::set<KeyTuple>& used) {
  if (spec.loop != LoopKind::kOpen || spec.rate_rps <= 0.0)
    throw std::invalid_argument("open_loop_stream: not an open-loop workload");
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const HotSlots hot = hot_slots();
  const std::vector<double> plan_cdf = zipf_cdf(hot.plans.size(), spec.zipf_s);
  const std::vector<double> replan_cdf = zipf_cdf(hot.replans.size(), spec.zipf_s);

  const auto hot_request = [&] {
    const bool replan = rng.bernoulli(spec.replan_share);
    Request request = replan ? hot.replans[sample_cdf(replan_cdf, rng)]
                             : hot.plans[sample_cdf(plan_cdf, rng)];
    // A later epoch of the same hour, jittered inside the slot's bins.
    request.time_s += 60.0 * rng.uniform_int(1, 58) + rng.uniform(-0.3, 0.3);
    if (replan) {
      request.position_m += rng.uniform(-3.0, 3.0);
      request.speed_ms += rng.uniform(-0.2, 0.2);
    }
    return request;
  };

  std::vector<TimedRequest> stream;
  stream.reserve(static_cast<std::size_t>(spec.rate_rps * seconds * 1.1) + 16);
  int vehicle = 0;
  std::size_t bursts = 0;
  double due = rng.exponential(spec.rate_rps);
  for (std::size_t arrival = 1; due < seconds; ++arrival, due += rng.exponential(spec.rate_rps)) {
    if (spec.miss_burst == 0 || arrival % spec.burst_every != 0) {
      Request request = hot_request();
      request.vehicle = vehicle++;
      stream.push_back(TimedRequest{due, request});
      continue;
    }
    // A platoon: miss_burst never-seen keys of one kind plus burst_hits hot
    // requests, all due at once.
    for (unsigned k = 0; k < spec.miss_burst; ++k) {
      Request request;
      do {
        request = cold_candidate(bursts, rng);
      } while (!used.insert(key_of(service, request)).second);
      request.vehicle = vehicle++;
      stream.push_back(TimedRequest{due, request});
    }
    for (unsigned k = 0; k < spec.burst_hits; ++k) {
      Request request = hot_request();
      request.vehicle = vehicle++;
      stream.push_back(TimedRequest{due, request});
    }
    ++bursts;
  }
  return stream;
}

VehicleState state_at(const core::PlannedProfile& profile, double t_s) {
  const std::vector<core::PlanNode>& nodes = profile.nodes();
  const auto it = std::upper_bound(nodes.begin(), nodes.end(), t_s,
                                   [](double t, const core::PlanNode& n) { return t < n.time_s; });
  const core::PlanNode& node = it == nodes.begin() ? nodes.front() : *(it - 1);
  return {node.position_m, node.speed_ms};
}

}  // namespace evvo::fleetbench
