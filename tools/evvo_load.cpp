// evvo_load - seeded synthetic fleet-traffic harness for cloud::PlanService.
//
// Generates a deterministic fleet workload (Poisson arrivals, Zipf hot-slot
// skew, mixed cold-plan/replan traffic) over a small signalized corridor and
// drives the planning service from M threads, reporting plans/sec. Both
// serving modes go through the service's one ticket-span API:
//
//   --mode legacy    one request per call on a 1-shard service, each ticket
//                    materialized - the original single-mutex layout and its
//                    per-request profile copy.
//   --mode sharded   per-tick batched ticket serving on an N-shard service,
//                    tickets never materialized - the fleet path this tool
//                    exists to size.
//   --mode compare   both, on the byte-identical workload; prints the
//                    plans/sec speedup and fails (exit 1) when it is below
//                    --min-speedup. This is the CI load-smoke gate.
//
// Serving latency is not measured here: fleetbench/ is the latency benchmark
// of record.
//
// --telemetry-dump FILE writes the full telemetry registry snapshot (shard
// counters, solver spans, service histograms) as JSON after the run;
// tools/evvo_stat pretty-prints and diffs the format.
//
// --check replays a small workload single-threaded through the batched
// ticket path and asserts every materialized response byte-equals the
// differential oracle: a cold VelocityPlanner solve of the key's canonical
// state at its first-occurrence time, time-shifted to the request (exact
// double equality, no tolerance). --tamper perturbs one served node and must
// make the check fail - the WILL_FAIL ctest twin proves the comparator can
// see a corrupted cache entry.
//
// Exit codes: 0 ok, 1 check/speedup failure, 2 usage error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cloud/plan_service.hpp"
#include "cloud/shard.hpp"
#include "common/clock.hpp"
#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace {

using namespace evvo;

struct Options {
  std::uint64_t seed = 1;
  std::size_t requests = 10000;
  unsigned threads = 1;
  unsigned shards = 8;
  double replan_frac = 0.3;
  double zipf_s = 1.1;
  /// Fraction of requests redirected to never-warmed replan keys (cold
  /// solver misses). Misses share one canonical mid-route layer, so a
  /// tick's misses are distinct leaders over one suffix corridor.
  double miss_rate = 0.0;
  std::size_t batch = 256;
  std::string mode = "compare";  // legacy | sharded | compare
  double min_speedup = 0.0;
  std::string telemetry_dump_path;
  bool check = false;
  bool tamper = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: evvo_load [--seed N] [--requests N] [--threads M] [--shards N]\n"
      "                 [--replan-frac F] [--zipf-s F] [--miss-rate F] [--batch N]\n"
      "                 [--mode legacy|sharded|compare] [--min-speedup F]\n"
      "                 [--telemetry-dump FILE] [--check] [--tamper]\n"
      "  --check replays the workload against the cold-solve oracle "
      "(single-threaded);\n"
      "  --tamper corrupts one served node so the check must fail.\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "evvo_load: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--requests") {
      const char* v = next("--requests");
      if (!v) return false;
      opt.requests = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (!v) return false;
      opt.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--shards") {
      const char* v = next("--shards");
      if (!v) return false;
      opt.shards = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--replan-frac") {
      const char* v = next("--replan-frac");
      if (!v) return false;
      opt.replan_frac = std::strtod(v, nullptr);
    } else if (arg == "--zipf-s") {
      const char* v = next("--zipf-s");
      if (!v) return false;
      opt.zipf_s = std::strtod(v, nullptr);
    } else if (arg == "--miss-rate") {
      const char* v = next("--miss-rate");
      if (!v) return false;
      opt.miss_rate = std::strtod(v, nullptr);
    } else if (arg == "--batch") {
      const char* v = next("--batch");
      if (!v) return false;
      opt.batch = std::strtoull(v, nullptr, 10);
    } else if (arg == "--mode") {
      const char* v = next("--mode");
      if (!v) return false;
      opt.mode = v;
    } else if (arg == "--min-speedup") {
      const char* v = next("--min-speedup");
      if (!v) return false;
      opt.min_speedup = std::strtod(v, nullptr);
    } else if (arg == "--telemetry-dump") {
      const char* v = next("--telemetry-dump");
      if (!v) return false;
      opt.telemetry_dump_path = v;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--tamper") {
      opt.tamper = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "evvo_load: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.requests == 0 || opt.threads == 0 || opt.shards == 0 || opt.batch == 0) {
    std::fprintf(stderr, "evvo_load: counts must be positive\n");
    return false;
  }
  if (opt.miss_rate < 0.0 || opt.miss_rate > 1.0) {
    std::fprintf(stderr, "evvo_load: --miss-rate must be in [0, 1]\n");
    return false;
  }
  if (opt.mode != "legacy" && opt.mode != "sharded" && opt.mode != "compare") {
    std::fprintf(stderr, "evvo_load: unknown --mode %s\n", opt.mode.c_str());
    return false;
  }
  return true;
}

// --- Workload ------------------------------------------------------------

/// The serving corridor: a fleet-scale 3 km urban arterial with three
/// coordinated lights. Every cycle is 60 s, so the hyperperiod stays 60 s
/// and phase slots are easy to lay out; profiles run ~300 nodes, the size
/// regime where per-request copies actually cost something.
core::VelocityPlanner make_planner() {
  road::Corridor corridor{road::Route({{0.0, 1200.0, 14.0, 0.0, 0.0},
                                       {1200.0, 2100.0, 12.0, 0.0, 0.01},
                                       {2100.0, 3000.0, 14.0, 0.0, 0.0}}),
                          {road::TrafficLight(400.0, 27.0, 33.0),
                           road::TrafficLight(1400.0, 25.0, 35.0, 18.0),
                           road::TrafficLight(2400.0, 27.0, 33.0, 41.0)},
                          {}};
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kGreenWindow;
  cfg.resolution.horizon_s = 420.0;
  return core::VelocityPlanner(std::move(corridor), ev::EnergyModel{}, cfg);
}

std::shared_ptr<traffic::ConstantArrivalRate> demand() {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(500.0));
}

/// One reusable request identity. Plan slots are departure phases; replan
/// slots are quantizer-exact mid-route states (position on the 10 m solver
/// grid, speed on the 0.5 m/s level grid) so the canonical state the service
/// solves is the state the oracle solves.
struct Slot {
  bool replan = false;
  double phase_s = 0.0;
  double position_m = 0.0;
  double speed_ms = 0.0;
};

std::vector<Slot> plan_slots() {
  std::vector<Slot> slots;
  for (int p = 0; p < 12; ++p) slots.push_back(Slot{false, 2.0 + 5.0 * p, 0.0, 0.0});
  return slots;
}

/// Cold-miss key space: one canonical mid-route layer (position 1230 m, on
/// the 10 m solver grid, inside the 12 m/s segment) crossed with every
/// (phase bin, velocity level) pair the grid admits. Misses drawn from here
/// were never warmed, and sharing the layer means a tick's misses are
/// distinct leaders solved back to back over one suffix corridor (on the
/// same pooled workspace). The space holds
/// 60 phases x 23 levels = 1380 distinct keys; a workload drawing more
/// wraps around (later draws become hits), which keeps long runs bounded.
constexpr double kMissPositionM = 1230.0;
constexpr std::size_t kMissPhases = 60;
constexpr std::size_t kMissVlevels = 23;  // 0.5 .. 11.5 m/s on the 0.5 grid

Slot miss_slot(std::size_t idx) {
  const std::size_t combo = idx % (kMissPhases * kMissVlevels);
  const auto phase = static_cast<double>(combo % kMissPhases);
  const double speed = 0.5 + 0.5 * static_cast<double>(combo / kMissPhases);
  return Slot{true, phase + 0.5, kMissPositionM, speed};
}

std::vector<Slot> replan_slots() {
  std::vector<Slot> slots;
  int j = 0;
  for (double position : {500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    for (double speed : {8.0, 10.0}) {
      slots.push_back(Slot{true, 1.0 + 6.0 * j, position, speed});
      ++j;
    }
  }
  return slots;
}

/// Zipf CDF over ranks 0..n-1 with exponent s: rank r has weight 1/(r+1)^s.
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

std::size_t sample_cdf(const std::vector<double>& cdf, evvo::Rng& rng) {
  const double u = rng.uniform();
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

struct Request {
  bool replan = false;
  int vehicle = 0;
  double time_s = 0.0;
  double position_m = 0.0;
  double speed_ms = 0.0;
};

/// Deterministic synthetic fleet stream: Poisson arrivals advance a clock
/// (mean gap 50 ms -> ~20 req/s of simulated fleet time), a Bernoulli coin
/// picks plan-vs-replan traffic, and a Zipf draw over the class's slots
/// skews load onto hot slots. Request times land inside the slot's phase bin
/// (phase + jitter within the 1 s quantum) at the arrival's hyperperiod
/// epoch, so hot slots repeat as phase-congruent cache traffic - the fleet
/// structure the service exists to exploit.
std::vector<Request> make_workload(const Options& opt, std::size_t count,
                                   std::uint64_t stream) {
  evvo::Rng rng(opt.seed * 1000003ull + stream);
  const std::vector<Slot> plans = plan_slots();
  const std::vector<Slot> replans = replan_slots();
  const std::vector<double> plan_cdf = zipf_cdf(plans.size(), opt.zipf_s);
  const std::vector<double> replan_cdf = zipf_cdf(replans.size(), opt.zipf_s);

  std::vector<Request> requests;
  requests.reserve(count);
  double clock = 120.0;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.exponential(20.0);  // Poisson arrivals, mean gap 0.05 s
    const double epoch = std::floor(clock / 60.0);
    if (rng.bernoulli(opt.miss_rate)) {
      // Cold traffic: walk the miss key space in stream-striped order so
      // concurrent driver threads never draw the same key.
      const Slot slot = miss_slot(misses++ * std::max(1u, opt.threads) + stream);
      const double time = 60.0 * epoch + slot.phase_s;
      requests.push_back(
          Request{true, static_cast<int>(i), time, slot.position_m, slot.speed_ms});
      continue;
    }
    const bool replan = rng.bernoulli(opt.replan_frac);
    const Slot& slot =
        replan ? replans[sample_cdf(replan_cdf, rng)] : plans[sample_cdf(plan_cdf, rng)];
    const double time = 60.0 * epoch + slot.phase_s + rng.uniform(-0.4, 0.4);
    requests.push_back(Request{slot.replan, static_cast<int>(i), time, slot.position_m,
                               slot.speed_ms});
  }
  return requests;
}

/// Solves every slot once (epoch 0 of each phase) so the measured stream is
/// the steady-state hit regime in both modes.
void warm_service(cloud::PlanService& service) {
  std::vector<cloud::PlanRequest> plans;
  for (const Slot& slot : plan_slots()) plans.push_back({-1, slot.phase_s});
  std::vector<cloud::ReplanRequest> replans;
  for (const Slot& slot : replan_slots())
    replans.push_back({-1, slot.position_m, slot.speed_ms, slot.phase_s});
  (void)service.request_plan_tickets(plans);
  (void)service.request_replan_tickets(replans);
}

// --- Load measurement ----------------------------------------------------

struct LoadResult {
  double wall_s = 0.0;
  long served = 0;

  double per_plan_ns() const { return wall_s * 1e9 / std::max(1L, served); }
  double plans_per_sec() const { return served / std::max(1e-12, wall_s); }
};

/// Legacy serving: one request per call (a span of one), its ticket
/// materialized - the per-request profile copy every caller of the
/// pre-shard service paid.
void drive_legacy(cloud::PlanService& service, const std::vector<Request>& requests,
                  std::size_t& sink) {
  for (const Request& r : requests) {
    const cloud::PlanRequest plan{r.vehicle, r.time_s};
    const cloud::ReplanRequest replan{r.vehicle, r.position_m, r.speed_ms, r.time_s};
    const core::PlannedProfile profile =
        (r.replan ? service.request_replan_tickets({&replan, 1})
                  : service.request_plan_tickets({&plan, 1}))
            .front()
            .materialize();
    sink += profile.nodes().size();
  }
}

/// Sharded serving: per-tick batched ticket dispatch (one cache transaction
/// per distinct key per tick, no node-vector copies).
void drive_sharded(cloud::PlanService& service, const std::vector<Request>& requests,
                   std::size_t batch, std::size_t& sink) {
  std::vector<cloud::PlanRequest> plans;
  std::vector<cloud::ReplanRequest> replans;
  for (std::size_t begin = 0; begin < requests.size(); begin += batch) {
    const std::size_t end = std::min(requests.size(), begin + batch);
    plans.clear();
    replans.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const Request& r = requests[i];
      if (r.replan) {
        replans.push_back({r.vehicle, r.position_m, r.speed_ms, r.time_s});
      } else {
        plans.push_back({r.vehicle, r.time_s});
      }
    }
    for (const cloud::PlanTicket& t : service.request_plan_tickets(plans))
      sink += t.reference->nodes().size();
    for (const cloud::PlanTicket& t : service.request_replan_tickets(replans))
      sink += t.reference->nodes().size();
  }
}

LoadResult run_load(const Options& opt, bool sharded) {
  cloud::CacheConfig cache;
  cache.shards = sharded ? opt.shards : 1;
  cloud::PlanService service(make_planner(), demand(), cache);
  warm_service(service);

  // Per-thread deterministic streams: thread t serves its own workload
  // slice, so the byte content of the traffic does not depend on --threads
  // interleaving.
  const std::size_t per_thread = (opt.requests + opt.threads - 1) / opt.threads;
  std::vector<std::vector<Request>> streams;
  std::size_t remaining = opt.requests;
  for (unsigned t = 0; t < opt.threads && remaining > 0; ++t) {
    const std::size_t n = std::min(per_thread, remaining);
    streams.push_back(make_workload(opt, n, t));
    remaining -= n;
  }

  std::vector<std::size_t> sinks(streams.size(), 0);
  const std::uint64_t start = common::now_ns();
  if (streams.size() == 1) {
    if (sharded) {
      drive_sharded(service, streams[0], opt.batch, sinks[0]);
    } else {
      drive_legacy(service, streams[0], sinks[0]);
    }
  } else {
    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      drivers.emplace_back([&, t] {
        if (sharded) {
          drive_sharded(service, streams[t], opt.batch, sinks[t]);
        } else {
          drive_legacy(service, streams[t], sinks[t]);
        }
      });
    }
    for (auto& d : drivers) d.join();
  }
  const std::uint64_t end = common::now_ns();

  LoadResult result;
  result.wall_s = common::seconds_between_ns(start, end);
  result.served = static_cast<long>(opt.requests);

  const cloud::ServiceStats stats = service.stats();
  std::fprintf(stderr,
               "  [%s] served %ld requests in %.3f s: %.0f plans/s, per-plan %.0f ns "
               "(hits %ld, solves %ld, shards %zu)\n",
               sharded ? "sharded" : "legacy", result.served, result.wall_s,
               result.plans_per_sec(), result.per_plan_ns(), stats.cache_hits,
               stats.solver_runs, service.shard_count());
  if (sharded) {
    const telemetry::Histogram& groups = service.batch_group_sizes();
    if (groups.count() > 0) {
      std::fprintf(stderr,
                   "  [sharded] batch groups: %llu over the run, size p50 %llu, p99 %llu\n",
                   static_cast<unsigned long long>(groups.count()),
                   static_cast<unsigned long long>(groups.percentile(0.50)),
                   static_cast<unsigned long long>(groups.percentile(0.99)));
    }
  }
  return result;
}

// --- Differential check --------------------------------------------------

bool nodes_equal(const std::vector<core::PlanNode>& a, const std::vector<core::PlanNode>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].position_m != b[i].position_m || a[i].speed_ms != b[i].speed_ms ||
        a[i].time_s != b[i].time_s || a[i].energy_mah != b[i].energy_mah) {
      return false;
    }
  }
  return true;
}

/// Replays the workload through the batched ticket path and compares every
/// materialized response, byte for byte, against the cold-solve oracle: an
/// independent VelocityPlanner solving the key's canonical state at its
/// first-occurrence time, shifted to the request time. cache_hit flags are
/// checked against first-occurrence order as well.
int run_check(const Options& opt) {
  cloud::CacheConfig cache;
  cache.shards = opt.shards;
  cloud::PlanService service(make_planner(), demand(), cache);
  core::VelocityPlanner oracle = make_planner();
  const auto arrivals = demand();

  const std::vector<Request> requests = make_workload(opt, opt.requests, 0);
  const std::size_t tamper_at = opt.requests / 2;

  using OracleKey = std::tuple<long, long, long, long>;
  struct OracleEntry {
    double first_time;
    core::PlannedProfile profile;
  };
  std::map<OracleKey, OracleEntry> seen;
  long failures = 0;
  long checked = 0;

  constexpr std::size_t kTick = 8;
  for (std::size_t begin = 0; begin < requests.size(); begin += kTick) {
    const std::size_t end = std::min(requests.size(), begin + kTick);
    std::vector<cloud::PlanRequest> plans;
    std::vector<cloud::ReplanRequest> replans;
    std::vector<std::size_t> plan_idx;
    std::vector<std::size_t> replan_idx;
    for (std::size_t i = begin; i < end; ++i) {
      const Request& r = requests[i];
      if (r.replan) {
        replans.push_back({r.vehicle, r.position_m, r.speed_ms, r.time_s});
        replan_idx.push_back(i);
      } else {
        plans.push_back({r.vehicle, r.time_s});
        plan_idx.push_back(i);
      }
    }
    const std::vector<cloud::PlanTicket> plan_tickets = service.request_plan_tickets(plans);
    const std::vector<cloud::PlanTicket> replan_tickets =
        service.request_replan_tickets(replans);

    // Within a tick the service serves plan groups before replan groups, so
    // feed the oracle in the same order: first-occurrence bookkeeping must
    // match the leader the service actually elected.
    const auto check_one = [&](const Request& r, const cloud::PlanTicket& ticket) {
      const cloud::PlanService::RequestSlot slot =
          r.replan ? service.slot_for_replan(Meters(r.position_m),
                                             MetersPerSecond(r.speed_ms), Seconds(r.time_s))
                   : service.slot_for_plan(Seconds(r.time_s));
      const OracleKey key{slot.key.phase_bin, slot.key.demand_bin, slot.key.layer,
                          slot.key.vlevel};
      const auto it = seen.find(key);
      const bool first = it == seen.end();
      const core::PlannedProfile expected =
          first ? (r.replan ? oracle.replan(Meters(r.position_m), MetersPerSecond(r.speed_ms),
                                            Seconds(r.time_s), arrivals)
                            : oracle.plan(Seconds(r.time_s), arrivals))
                : it->second.profile.time_shifted(r.time_s - it->second.first_time);
      if (first) seen.emplace(key, OracleEntry{r.time_s, expected});

      std::vector<core::PlanNode> served = ticket.materialize().nodes();
      if (opt.tamper && static_cast<std::size_t>(r.vehicle) == tamper_at && !served.empty()) {
        served[served.size() / 2].speed_ms += 1e-9;  // simulated cache corruption
      }
      ++checked;
      if (ticket.cache_hit == first) {
        ++failures;
        std::fprintf(stderr,
                     "evvo_load: request %d cache_hit=%d but key %s seen before\n",
                     r.vehicle, ticket.cache_hit ? 1 : 0, first ? "never" : "was");
      }
      if (!nodes_equal(served, expected.nodes())) {
        ++failures;
        std::fprintf(stderr,
                     "evvo_load: request %d (t=%.3f, %s) diverges from the cold-solve "
                     "oracle (%zu vs %zu nodes)\n",
                     r.vehicle, r.time_s, r.replan ? "replan" : "plan", served.size(),
                     expected.nodes().size());
      }
    };
    for (std::size_t k = 0; k < plan_idx.size(); ++k)
      check_one(requests[plan_idx[k]], plan_tickets[k]);
    for (std::size_t k = 0; k < replan_idx.size(); ++k)
      check_one(requests[replan_idx[k]], replan_tickets[k]);
  }

  const cloud::ServiceStats stats = service.stats();
  std::fprintf(stderr,
               "evvo_load --check: %ld responses vs oracle, %ld mismatches "
               "(%zu distinct keys, %ld solver runs, %ld hits)\n",
               checked, failures, seen.size(), stats.solver_runs, stats.cache_hits);
  if (stats.requests != stats.cache_hits + stats.solver_runs) {
    std::fprintf(stderr, "evvo_load: stats identity violated\n");
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

/// Writes the full registry snapshot as JSON (the evvo_stat input format).
bool dump_telemetry(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "evvo_load: cannot write %s\n", path.c_str());
    return false;
  }
  out << telemetry::to_json(telemetry::snapshot()) << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.tamper && !opt.check) {
    std::fprintf(stderr, "evvo_load: --tamper requires --check\n");
    return 2;
  }
  if (opt.check) {
    const int rc = run_check(opt);
    if (!opt.telemetry_dump_path.empty() && !dump_telemetry(opt.telemetry_dump_path)) return 2;
    return rc;
  }

  double speedup = 0.0;
  if (opt.mode == "legacy" || opt.mode == "compare") {
    const LoadResult legacy = run_load(opt, /*sharded=*/false);
    if (opt.mode == "compare") {
      const LoadResult sharded = run_load(opt, /*sharded=*/true);
      speedup = sharded.plans_per_sec() / std::max(1e-12, legacy.plans_per_sec());
      std::fprintf(stderr, "evvo_load: %u-shard batched serving sustains %.2fx the "
                           "plans/sec of the single-mutex service\n",
                   opt.shards, speedup);
    }
  } else {
    (void)run_load(opt, /*sharded=*/true);
  }
  if (!opt.telemetry_dump_path.empty() && !dump_telemetry(opt.telemetry_dump_path)) return 2;
  if (opt.mode == "compare" && opt.min_speedup > 0.0 && speedup < opt.min_speedup) {
    std::fprintf(stderr, "evvo_load: speedup %.2fx below required %.2fx\n", speedup,
                 opt.min_speedup);
    return 1;
  }
  return 0;
}
