#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/clock.hpp"
#include "common/random.hpp"
#include "core/dp_batch.hpp"
#include "core/workspace_pool.hpp"
#include "traffic/queue_predictor.hpp"

namespace evvo::fleetbench {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// Sum of the counters named `name`, or, for a name starting with '.', of
/// every PlanService counter ending in it (one per shard and instance).
long counter(const telemetry::Snapshot& snap, std::string_view name) {
  long total = 0;
  for (const auto& c : snap.counters) {
    const bool match = name.front() == '.'
                           ? c.name.starts_with("plan_service.") && ends_with(c.name, name)
                           : c.name == name;
    if (match) total += c.value;
  }
  return total;
}

/// Merged buckets of the histograms named `name` (same '.'-suffix rule).
struct Dist {
  std::vector<std::pair<int, std::uint64_t>> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double p(double q) const { return bucket_percentile(buckets, q); }
  double mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }
};

Dist histogram(const telemetry::Snapshot& snap, std::string_view name) {
  std::map<int, std::uint64_t> merged;
  Dist d;
  for (const auto& h : snap.histograms) {
    const bool match = name.front() == '.'
                           ? h.name.starts_with("plan_service.") && ends_with(h.name, name)
                           : h.name == name;
    if (!match) continue;
    for (const auto& [idx, n] : h.buckets) merged[idx] += n;
    d.count += h.count;
    d.sum += h.sum;
  }
  d.buckets.assign(merged.begin(), merged.end());
  return d;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> window_layers(const telemetry::Snapshot& snap, const RunResult& run,
                                  const cloud::ServiceStats& stats) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back(Metric{std::move(name), value, std::move(unit)});
  };

  // cloud: the dispatch as the benchmark times it, then the service's own
  // counters and histograms.
  const Dist call = histogram(snap, "bench.call_ns");
  const Dist call_size = histogram(snap, "bench.call_batch_size");
  add("cloud.call_ns_p50", call.p(0.50), "ns");
  add("cloud.call_ns_p99", call.p(0.99), "ns");
  add("cloud.call_batch_size", call_size.mean(), "count");
  add("cloud.hit_ratio", ratio(static_cast<double>(stats.cache_hits), static_cast<double>(stats.requests)), "ratio");
  add("cloud.coalesced_share",
      ratio(static_cast<double>(stats.coalesced_hits), static_cast<double>(stats.cache_hits)), "ratio");
  add("cloud.flight_waits", static_cast<double>(counter(snap, ".flight_waits")), "count");
  add("cloud.queue_depth_max", static_cast<double>(run.queue_depth_max), "count");
  add("cloud.solver_runs", static_cast<double>(stats.solver_runs), "count");
  add("cloud.evictions", static_cast<double>(stats.evictions), "count");
  add("cloud.rejections", static_cast<double>(stats.rejections), "count");
  const Dist ticket = histogram(snap, ".ticket_ns");
  add("cloud.ticket_ns_p50", ticket.p(0.50), "ns");
  add("cloud.ticket_ns_p99", ticket.p(0.99), "ns");
  const Dist batch_solve = histogram(snap, ".batch_solve_ns");
  add("cloud.batch_solve_ns_p50", batch_solve.p(0.50), "ns");
  add("cloud.batch_solve_count", static_cast<double>(batch_solve.count), "count");
  const Dist group = histogram(snap, ".batch_group_size");
  add("cloud.batch_group_size_mean", group.mean(), "count");
  add("cloud.batch_group_size_p99", group.p(0.99), "count");

  // core: the DP as the window ran it.
  const Dist cold = histogram(snap, "dp.solve_cold_ns");
  const Dist warm = histogram(snap, "dp.solve_warm_ns");
  add("core.dp.solve_cold_ns_p50", cold.p(0.50), "ns");
  add("core.dp.solve_cold_count", static_cast<double>(cold.count), "count");
  add("core.dp.solve_warm_ns_p50", warm.p(0.50), "ns");
  add("core.dp.solve_warm_count", static_cast<double>(warm.count), "count");
  const double spliced = static_cast<double>(counter(snap, "dp.replan.spliced"));
  const double stripes = static_cast<double>(counter(snap, "dp.replan.stripes"));
  const double cold_path = static_cast<double>(counter(snap, "dp.replan.cold"));
  add("core.dp.warm_share", ratio(spliced + stripes, spliced + stripes + cold_path), "ratio");

  const double lanes = static_cast<double>(counter(snap, "dp.batch.lanes"));
  const double slots = static_cast<double>(counter(snap, "dp.batch.lane_slots"));
  const double fallback = static_cast<double>(counter(snap, "dp.batch.fallback_lanes"));
  add("core.batch.lane_fill", ratio(lanes, slots), "ratio");
  add("core.batch.fallback_share", ratio(fallback, lanes + fallback), "ratio");
  add("core.batch.sweep_ns_p50", histogram(snap, "dp.batch.sweep_ns").p(0.50), "ns");

  const double affinity = static_cast<double>(counter(snap, "dp.pool.affinity_hits"));
  const double lifo = static_cast<double>(counter(snap, "dp.pool.lifo_reuses"));
  const double fresh = static_cast<double>(counter(snap, "dp.pool.fresh_allocs"));
  add("core.pool.fresh_allocs", fresh, "count");
  add("core.pool.affinity_share", ratio(affinity, affinity + lifo + fresh), "ratio");

  const Dist materialize = histogram(snap, "bench.materialize_ns");
  add("core.materialize_ns_p50", materialize.p(0.50), "ns");
  add("core.materialize_ns_p99", materialize.p(0.99), "ns");

  // bench: is the open loop's clock trustworthy?
  std::vector<double> lag_ms;
  lag_ms.reserve(run.generator_lag_ns.size());
  for (std::uint64_t ns : run.generator_lag_ns) lag_ms.push_back(static_cast<double>(ns) * 1e-6);
  add("bench.generator_lag_p99_ms", percentile(std::move(lag_ms), 0.99), "ms");
  add("bench.backlog_max", static_cast<double>(run.backlog_max), "count");
  return m;
}

namespace {

/// Telemetry counters the replay reads as before/after differences.
struct DpCounters {
  long relaxations = 0, frontier = 0, pruned = 0, lanes_used = 0, lanes_capacity = 0;

  static DpCounters read() {
    const telemetry::Snapshot snap = telemetry::snapshot();
    return {counter(snap, "dp.relaxations"), counter(snap, "dp.frontier_states"),
            counter(snap, "dp.pruned_states"), counter(snap, "dp.simd_lanes_used"),
            counter(snap, "dp.simd_lanes_capacity")};
  }
};

template <typename F>
double timed_ns(F&& f) {
  const std::uint64_t start = common::now_ns();
  f();
  return static_cast<double>(common::now_ns() - start);
}

}  // namespace

std::vector<Metric> replay_layers(const Scenario& scenario, std::span<const RequestRecord> records,
                                  std::span<const RequestRecord> setup_records, std::size_t sample,
                                  std::uint64_t seed) {
  // The solves to replay: leader tickets, in request order, seeded sample.
  const auto leaders = [](std::span<const RequestRecord> from) {
    std::vector<Request> out;
    for (const RequestRecord& rec : from) {
      if (rec.ok && rec.ticket.reference && !rec.ticket.cache_hit) out.push_back(rec.request);
    }
    std::sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
      return std::pair(a.time_s, a.vehicle) < std::pair(b.time_s, b.vehicle);
    });
    return out;
  };
  std::vector<Request> pool = leaders(records);
  if (pool.empty()) pool = leaders(setup_records);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 53);
  std::vector<Request> keys;
  for (std::size_t i : rng.permutation(pool.size())) {
    if (keys.size() == sample) break;
    keys.push_back(pool[i]);
  }

  const core::VelocityPlanner planner = scenario.fresh_planner();
  const core::PlannerConfig& cfg = planner.config();
  const traffic::QueueModel queue_model(cfg.vm, cfg.discharge);
  const double horizon = cfg.resolution.horizon_s;
  const double length = scenario.corridor.length();
  const double grid_ds = length / std::max(1.0, std::round(length / cfg.resolution.ds_m));

  std::vector<double> tq_ns, events_ns, solve_ms;
  const DpCounters before = DpCounters::read();
  for (const Request& r : keys) {
    for (const road::TrafficLight& light : scenario.corridor.lights) {
      const traffic::QueuePredictor predictor(light, queue_model, scenario.demand);
      tq_ns.push_back(timed_ns([&] {
        (void)predictor.zero_queue_windows(Seconds(r.time_s), Seconds(r.time_s + horizon));
      }));
    }
    events_ns.push_back(timed_ns([&] { (void)planner.build_events(Seconds(r.time_s), scenario.demand); }));
    solve_ms.push_back(1e-6 * timed_ns([&] {
      if (!r.replan) {
        (void)planner.plan_with_stats(Seconds(r.time_s), scenario.demand);
      } else {
        const KeyTuple key = key_of(*scenario.service, r);
        (void)planner.replan(Meters(static_cast<double>(std::get<2>(key)) * grid_ds),
                             MetersPerSecond(static_cast<double>(std::get<3>(key)) * cfg.resolution.dv_ms),
                             Seconds(r.time_s), scenario.demand);
      }
    }));
  }
  const DpCounters after = DpCounters::read();
  const auto solves = static_cast<double>(keys.size());
  const auto relax = static_cast<double>(after.relaxations - before.relaxations);
  const auto frontier = static_cast<double>(after.frontier - before.frontier);
  const auto pruned = static_cast<double>(after.pruned - before.pruned);

  // Batched kernel against pooled sequential solves of the same full-trip
  // problems (the replayed departures, or the hot slots when fewer than two).
  std::vector<double> departures;
  for (const Request& r : keys) {
    if (!r.replan) departures.push_back(r.time_s);
  }
  if (departures.size() < 2) {
    departures.clear();
    for (const Request& r : hot_slots().plans) departures.push_back(r.time_s);
  }
  std::vector<core::DpProblem> problems;
  for (double t : departures) {
    core::DpProblem p;
    p.route = &planner.corridor().route;
    p.energy = &planner.energy_model();
    p.depart_time = Seconds(t);
    p.resolution = cfg.resolution;
    p.penalty = cfg.penalty;
    p.time_weight_mah_per_s = cfg.time_weight_mah_per_s;
    p.smoothness_weight_mah_per_ms = cfg.smoothness_weight_mah_per_ms;
    p.dominance_pruning = cfg.dominance_pruning;
    p.events = planner.build_events(Seconds(t), scenario.demand);
    problems.push_back(std::move(p));
  }
  core::DpWorkspace workspace;
  const double sequential_ns = timed_ns([&] {
    for (const core::DpProblem& p : problems) (void)core::solve_dp(p, workspace);
  });
  core::WorkspacePool workspaces;
  const double batch_ns = timed_ns([&] { (void)core::solve_dp_batch(problems, workspaces); });

  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  add("traffic.tq_windows_ns", median(tq_ns), "ns");
  add("core.build_events_ns", median(events_ns), "ns");
  add("core.dp.solve_ms_p50", percentile(solve_ms, 0.50), "ms");
  add("core.dp.solve_ms_p99", percentile(solve_ms, 0.99), "ms");
  add("core.dp.relaxations_per_solve", ratio(relax, solves), "count");
  add("core.dp.frontier_states_per_solve", ratio(frontier, solves), "count");
  add("core.dp.pruned_share", ratio(pruned, frontier + pruned), "ratio");
  add("core.dp.simd_lane_occupancy",
      ratio(static_cast<double>(after.lanes_used - before.lanes_used),
            static_cast<double>(after.lanes_capacity - before.lanes_capacity)),
      "ratio");
  add("core.batch.replay_speedup", ratio(sequential_ns, batch_ns), "x");
  return m;
}

}  // namespace evvo::fleetbench
