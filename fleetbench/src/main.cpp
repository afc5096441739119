// fleetbench - the fleet serving benchmark of record for cloud::PlanService.
//
//   fleetbench --workload hit_heavy|miss_storm|rolling_horizon --seed N
//              --seconds S --trace 0|1
//
// Set-up (SAE fit, service construction, cache warm-up) runs three times and
// its median is setup_s; the last service is then driven for S seconds.
// After the timed window, outside it, every served plan the check samples is
// compared byte for byte with an independent cold solve, and the service's
// counters must account for every request sent.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced window,
// then a traced one (spans around the benchmark's own calls), then replays
// the traced window's miss keys layer by layer, and prints the per-layer
// metrics. Lines before the last are '#' comments for people; the last line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Exit codes: 0 ok, 1 the output check failed (the result line says so),
// 2 usage error or a build without NDEBUG.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "adapter.hpp"
#include "check.hpp"
#include "common/clock.hpp"
#include "common/telemetry.hpp"
#include "driver.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "scenario.hpp"

namespace {

using namespace evvo;
using namespace evvo::fleetbench;

constexpr int kSetups = 3;
constexpr std::size_t kMaxBatch = 12;     // one dispatch takes at most this many queued requests
constexpr std::size_t kCheckSample = 12;  // reference profiles re-solved per window
constexpr std::size_t kReplaySample = 8;  // miss keys replayed layer by layer

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:");
  for (const WorkloadSpec& spec : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()), spec.name.data());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      continue;
    }
    if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && find_workload(opt.workload) != nullptr && opt.seconds > 0.0 &&
         opt.seconds <= 120.0;
}

std::vector<Request> warm_requests(const WorkloadSpec& spec, const ThreadBudget& budget,
                                   std::uint64_t seed) {
  if (spec.loop == LoopKind::kClosed) {
    return fleet_departures(FleetPlan{spec.vehicles_per_client, spec.cohort_per_client,
                                      spec.replan_interval_s, 0.0, seed},
                            budget.clients);
  }
  HotSlots hot = hot_slots();
  std::vector<Request> out = hot.plans;
  out.insert(out.end(), hot.replans.begin(), hot.replans.end());
  return out;
}

/// One timed window on the scenario's service.
RunResult drive(const WorkloadSpec& spec, const ThreadBudget& budget, Scenario& scenario,
                std::uint64_t seed, double seconds, bool traced, std::set<KeyTuple>& used) {
  DriveOptions options;
  options.clients = budget.clients;
  options.max_batch = kMaxBatch;
  options.traced = traced;
  cloud::PlanService& service = *scenario.service;
  options.queue_depth = [&service] { return service.stats().queue_depth; };
  const ServeFn serve = bind_service(service);
  if (spec.loop == LoopKind::kOpen) {
    const std::vector<TimedRequest> stream = open_loop_stream(spec, service, seed, seconds, used);
    telemetry::reset_all();
    return run_open_loop(stream, serve, options);
  }
  telemetry::reset_all();
  return run_closed_loop(FleetPlan{spec.vehicles_per_client, spec.cohort_per_client,
                                   spec.replan_interval_s, seconds, seed},
                         serve, options);
}

/// Output and accounting checks for the window just driven; `history`
/// holds every earlier record of this service (set-up included).
bool verify(const WorkloadSpec& spec, const Scenario& scenario, std::vector<RequestRecord>& history,
            const RunResult& run, const ThreadBudget& budget, std::uint64_t seed) {
  bool ok = true;
  const cloud::ServiceStats stats = scenario.service->stats();
  if (const std::string err = check_stats(stats, static_cast<long>(run.records.size())); !err.empty()) {
    std::printf("# check: %s\n", err.c_str());
    ok = false;
  }
  if (spec.name == "hit_heavy" && stats.solver_runs != 0) {
    std::printf("# check: hit_heavy solved %ld keys in its timed window\n", stats.solver_runs);
    ok = false;
  }
  history.insert(history.end(), run.records.begin(), run.records.end());
  CheckOptions options;
  options.sample = kCheckSample;
  options.seed = seed;
  options.threads = budget.clients;
  const CheckResult check = check_outputs(scenario, history, options);
  std::printf("# check: %zu plans compared byte for byte over %zu reference profiles, %zu mismatches\n",
              check.checked, check.references, check.mismatches);
  for (const std::string& e : check.errors) std::printf("# check: %s\n", e.c_str());
  return ok && check.ok() && check.checked > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "fleetbench: refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  const WorkloadSpec& spec = *find_workload(opt.workload);
  const ThreadBudget budget = thread_budget(spec.loop);
  std::printf("# host %s\n", fingerprint_json(spec, budget, kMaxBatch).c_str());

  // Set-up, several times; the last service is the one measured.
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::optional<Scenario> built;
  RunResult warm;
  for (int i = 0; i < kSetups; ++i) {
    built.reset();
    const std::uint64_t start = common::now_ns();
    built.emplace(make_scenario(budget));
    // Set-up dispatches the way the workload does: open-loop platoons take
    // up to kMaxBatch at once, closed-loop vehicles one request each.
    warm = run_split(warm_requests(spec, budget, opt.seed), bind_service(*built->service),
                     budget.clients, spec.loop == LoopKind::kOpen ? kMaxBatch : 1);
    setup_s.push_back(common::seconds_between_ns(start, common::now_ns()));
    fit_s.push_back(built->sae_fit_s);
  }
  Scenario& scenario = *built;
  std::set<KeyTuple> used;
  for (const RequestRecord& rec : warm.records) used.insert(key_of(*scenario.service, rec.request));
  std::vector<RequestRecord> history = warm.records;

  const RunResult run = drive(spec, budget, scenario, opt.seed, opt.seconds, false, used);
  const double rss_mb = peak_rss_mb();  // before the check's own solves
  bool correct = verify(spec, scenario, history, run, budget, opt.seed);
  const WindowSummary w = summarize(run);
  std::printf("# window: %zu requests (%zu misses, %zu failed) in %.3f s\n", w.attempted, w.misses,
              w.failed, run.wall_s);

  std::vector<Metric> metrics;
  std::size_t attempted = w.attempted;
  std::size_t failed = w.failed;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p99_ms", w.latency_p99_ms, "ms"},
        {"miss_latency_p50_ms", w.miss_latency_p50_ms, "ms"},
        {"throughput_rps", w.throughput_rps, "1/s"},
        {"cpu_ms_per_request", w.cpu_ms_per_request, "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"plan_energy_mah_per_km", w.plan_energy_mah_per_km, "mAh/km"},
        {"plan_time_s_per_km", w.plan_time_s_per_km, "s/km"},
    };
    // A metric with no samples is left out: hit_heavy runs no solve.
    if (w.misses == 0) std::erase_if(metrics, [](const Metric& m) { return m.name == "miss_latency_p50_ms"; });
    // Hit latencies take a few microseconds; on a shared host they swing by
    // a quarter from run to run, so they are shown but not reported.
    const Metric extra[] = {
        {"latency_p50_ms", w.latency_p50_ms, "ms"},
        {"hit_latency_p99_ms", w.hit_latency_p99_ms, "ms"},
        {"failed_frac", w.attempted ? static_cast<double>(w.failed) / static_cast<double>(w.attempted) : 0.0,
         "ratio"},
    };
    print_table("end-to-end", metrics);
    print_table("also measured (hit timings, too noisy to gate on a shared host; failures, 0 by design)", extra);
  } else {
    const RunResult traced = drive(spec, budget, scenario, opt.seed + 0x5bd1e995ULL, opt.seconds, true, used);
    const telemetry::Snapshot snap = telemetry::snapshot();
    const cloud::ServiceStats stats = scenario.service->stats();
    correct = verify(spec, scenario, history, traced, budget, opt.seed + 1) && correct;
    const WindowSummary t = summarize(traced);
    attempted = t.attempted;
    failed = t.failed;

    metrics = window_layers(snap, traced, stats);
    const std::vector<Metric> replay =
        replay_layers(scenario, traced.records, warm.records, kReplaySample, opt.seed);
    metrics.insert(metrics.end(), replay.begin(), replay.end());
    // The DP a miss waits for: its platoon's batched sweep when the window
    // batched misses, else one solve.
    const auto value_of = [&metrics](std::string_view name) {
      for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    const double batched_ns = value_of("cloud.batch_solve_ns_p50");
    const double dp_ns_p50 = batched_ns > 0.0 ? batched_ns : value_of("core.dp.solve_cold_ns_p50");
    metrics.push_back({"traffic.sae_fit_s", median(fit_s), "s"});
    metrics.push_back({"bench.miss_latency_p50_ms", t.miss_latency_p50_ms, "ms"});
    metrics.push_back({"bench.dp_share_of_miss_p50",
                       t.miss_latency_p50_ms > 0.0 ? dp_ns_p50 * 1e-6 / t.miss_latency_p50_ms : 0.0, "ratio"});
    metrics.push_back({"bench.trace_overhead_pct",
                       w.latency_p50_ms > 0.0 ? 100.0 * (t.latency_p50_ms - w.latency_p50_ms) / w.latency_p50_ms
                                              : 0.0,
                       "%"});
    print_table("per-layer (traced window and replay)", metrics);
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
