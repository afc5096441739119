// Microbenchmarks (google-benchmark): solver, simulator, predictor, and
// model hot paths. These size the system: a full queue-aware plan for the
// 4.2 km corridor, SAE training epochs, and microsim step throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "cloud/plan_service.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "core/planner.hpp"
#include "data/synthetic_volume.hpp"
#include "ev/energy_model.hpp"
#include "learn/sae.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"
#include "sim/microsim.hpp"
#include "traffic/queue_predictor.hpp"
#include "traffic/traffic_predictor.hpp"

namespace evvo {
namespace {

void BM_EnergyRate(benchmark::State& state) {
  const ev::EnergyModel model;
  double v = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.current_a(MetersPerSecond(v), MetersPerSecondSquared(0.5), 0.01));
    v = v < 30.0 ? v + 0.01 : 1.0;
  }
}
BENCHMARK(BM_EnergyRate);

void BM_QueueWindows(benchmark::State& state) {
  const road::TrafficLight light(1820.0, 30.0, 30.0);
  const traffic::QueuePredictor predictor(
      light, traffic::QueueModel(traffic::VmParams{}),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.zero_queue_windows(Seconds(0.0), Seconds(600.0)));
  }
}
BENCHMARK(BM_QueueWindows);

void BM_DpSolveCorridor(benchmark::State& state) {
  const road::Corridor corridor = road::make_us25_corridor();
  const ev::EnergyModel energy;
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kQueueAware;
  cfg.resolution.ds_m = static_cast<double>(state.range(0));
  const core::VelocityPlanner planner(corridor, energy, cfg);
  const auto arrivals = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(Seconds(0.0), arrivals));
  }
  state.SetLabel("ds=" + std::to_string(state.range(0)) + "m");
}
BENCHMARK(BM_DpSolveCorridor)->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_PlanServiceReplanHit(benchmark::State& state) {
  // Segment-memo hit path: mid-route replans whose quantized state and cycle
  // phase repeat are served by time-shifting the cached tail.
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  cloud::ReplanRequest request{0, 2000.0, 15.0, 600.0};
  (void)service.request_replan_tickets({&request, 1});  // warm the memo
  long tick = 0;
  for (auto _ : state) {
    request = {1, 2000.0, 15.0, 600.0 + 60.0 * (++tick)};
    benchmark::DoNotOptimize(service.request_replan_tickets({&request, 1}).front().materialize());
  }
  state.SetLabel("phase-congruent mid-route states served from the memo");
}
BENCHMARK(BM_PlanServiceReplanHit);

void BM_MicrosimStep(benchmark::State& state) {
  sim::MicrosimConfig cfg;
  cfg.seed = 3;
  sim::Microsim simulator(road::make_us25_corridor(), cfg,
                          std::make_shared<traffic::ConstantArrivalRate>(
                              flow_from_veh_h(static_cast<double>(state.range(0)))));
  simulator.run_until(600.0);  // populate
  for (auto _ : state) {
    simulator.step();
  }
  state.SetLabel(std::to_string(state.range(0)) + " veh/h, ~" +
                 std::to_string(simulator.vehicles().size()) + " vehicles");
}
BENCHMARK(BM_MicrosimStep)->Arg(800)->Arg(1530)->Arg(2400);

void BM_SaeTrainEpoch(benchmark::State& state) {
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 0;
  cfg.sae.finetune_epochs = 1;
  for (auto _ : state) {
    traffic::SaeVolumePredictor predictor(cfg);
    predictor.fit(ds.train);
    benchmark::DoNotOptimize(predictor);
  }
  state.SetLabel("1 finetune epoch over 4 weeks hourly");
}
BENCHMARK(BM_SaeTrainEpoch)->Unit(benchmark::kMillisecond);

learn::Matrix deterministic_matrix(std::size_t rows, std::size_t cols, double scale) {
  learn::Matrix m(rows, cols);
  std::size_t k = 0;
  for (double& v : m.flat()) v = scale * (0.5 + 0.5 * std::sin(0.7 * static_cast<double>(++k)));
  return m;
}

void BM_SaeForward(benchmark::State& state) {
  // Raw SAE forward pass (the matmul_bt hot path) on a batch of `rows`
  // feature vectors: isolates the GEMM kernel from feature building.
  const auto rows = static_cast<std::size_t>(state.range(0));
  learn::SaeConfig cfg;
  cfg.input_dim = 26;
  cfg.pretrain_epochs = 0;
  learn::StackedAutoencoder sae(cfg);
  (void)sae.finetune(deterministic_matrix(64, cfg.input_dim, 1.0), deterministic_matrix(64, 1, 1.0),
                     1);
  const learn::Matrix x = deterministic_matrix(rows, cfg.input_dim, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sae.predict(x));
  }
  state.SetLabel("batch=" + std::to_string(rows) + ", 26-32-16-1");
}
BENCHMARK(BM_SaeForward)->Arg(1)->Arg(64);

void BM_SaePredict(benchmark::State& state) {
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 2;
  cfg.sae.finetune_epochs = 5;
  traffic::SaeVolumePredictor predictor(cfg);
  predictor.fit(ds.train);
  std::vector<double> window(cfg.window_hours, 700.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict_next(window, 8, 2));
  }
}
BENCHMARK(BM_SaePredict);

void BM_SaePredictBatch(benchmark::State& state) {
  // Corridor-wide forecast: one predict_batch over `n` calendar slots vs n
  // predict_next calls (the amortization predict_batch exists for).
  const auto ds = data::make_us25_dataset(data::VolumePatternConfig{}, 4, 1);
  traffic::PredictorConfig cfg;
  cfg.sae.pretrain_epochs = 2;
  cfg.sae.finetune_epochs = 5;
  traffic::SaeVolumePredictor predictor(cfg);
  predictor.fit(ds.train);
  const std::vector<double> window(cfg.window_hours, 700.0);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<traffic::VolumeQuery> queries(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries[i] = {window, static_cast<int>(i % 24), static_cast<int>(i / 24 % 7)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict_batch(queries));
  }
  state.SetLabel(std::to_string(n) + " queries, one stack pass");
}
BENCHMARK(BM_SaePredictBatch)->Arg(24);

void BM_QueueClearTime(benchmark::State& state) {
  const traffic::QueueModel model{traffic::VmParams{}};
  const traffic::CyclePhases phases{30.0, 30.0};
  double rate = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.clear_time(phases, VehiclesPerSecond(rate)));
    rate = rate < 1.5 ? rate + 0.001 : 0.05;
  }
}
BENCHMARK(BM_QueueClearTime);

void BM_PlanServiceCachedRequest(benchmark::State& state) {
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  cloud::PlanRequest request{0, 600.0};
  (void)service.request_plan_tickets({&request, 1});  // warm the cache
  long depart = 0;
  for (auto _ : state) {
    request = {1, 600.0 + 60.0 * (++depart)};
    benchmark::DoNotOptimize(service.request_plan_tickets({&request, 1}).front().materialize());
  }
  state.SetLabel("phase-congruent departures served from cache");
}
BENCHMARK(BM_PlanServiceCachedRequest);

void BM_PlanServiceTicketHit(benchmark::State& state) {
  // The zero-copy hit path: same traffic as BM_PlanServiceCachedRequest but
  // the ticket (shared reference + shift) is never materialized, so no node
  // vector is copied.
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
  cloud::PlanRequest request{0, 600.0};
  (void)service.request_plan_tickets({&request, 1});  // warm the cache
  long depart = 0;
  for (auto _ : state) {
    request = {1, 600.0 + 60.0 * (++depart)};
    benchmark::DoNotOptimize(service.request_plan_tickets({&request, 1}));
  }
  state.SetLabel("cache hits served as tickets, no profile copy");
}
BENCHMARK(BM_PlanServiceTicketHit);

void BM_PlanServiceShardedBatchHit(benchmark::State& state) {
  // Fleet tick on an 8-shard service: a 64-request batch over a handful of
  // phase-congruent departure bins, served through the grouped ticket path
  // (one cache transaction per distinct key per tick).
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cloud::CacheConfig cache;
  cache.shards = 8;
  cloud::PlanService service(
      core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
      std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)), cache);
  constexpr int kBatch = 64;
  constexpr int kBins = 4;
  std::vector<cloud::PlanRequest> requests;
  for (int b = 0; b < kBins; ++b) requests.push_back({b, 600.0 + 11.0 * b});
  (void)service.request_plan_tickets(requests);  // warm the cache
  long tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    requests.clear();
    const double epoch = 600.0 + 60.0 * (++tick);
    for (int i = 0; i < kBatch; ++i) requests.push_back({i, epoch + 11.0 * (i % kBins)});
    state.ResumeTiming();
    benchmark::DoNotOptimize(service.request_plan_tickets(requests));
  }
  state.SetLabel(std::to_string(kBatch) + " requests over " + std::to_string(kBins) +
                 " bins, grouped ticket dispatch");
}
BENCHMARK(BM_PlanServiceShardedBatchHit);

void BM_PlanServiceConcurrentMisses(benchmark::State& state) {
  // Distinct-key miss throughput with N concurrent callers: 8 cold keys split
  // across N threads (the benchmark thread is caller 0), each serving its
  // share through request_plan_tickets. The solver runs outside the cache
  // lock, so callers solve in parallel; the real-time column is the
  // measure, since CPU time counts only caller 0.
  sim::MicrosimConfig sim_cfg;
  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_cfg.background_driver, 13.4, sim_cfg.straight_ratio);
  cfg.resolution.ds_m = 40.0;  // coarse grid: many solves per iteration
  const auto callers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kMisses = 8;
  std::vector<std::vector<cloud::PlanRequest>> shares(callers);
  for (std::size_t i = 0; i < kMisses; ++i) {
    shares[i % callers].push_back({static_cast<int>(i), 600.0 + 7.0 * static_cast<double>(i)});
  }
  for (auto _ : state) {
    state.PauseTiming();
    cloud::PlanService service(
        core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg),
        std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0)));
    state.ResumeTiming();
    std::vector<std::jthread> others;  // joined when the iteration ends
    for (std::size_t c = 1; c < callers; ++c) {
      others.emplace_back([&service, &share = shares[c]] {
        benchmark::DoNotOptimize(service.request_plan_tickets(share));
      });
    }
    benchmark::DoNotOptimize(service.request_plan_tickets(shares[0]));
  }
  state.SetLabel("callers=" + std::to_string(callers) + ", " + std::to_string(kMisses) +
                 " distinct-key misses");
}
BENCHMARK(BM_PlanServiceConcurrentMisses)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TelemetryOverhead(benchmark::State& state) {
  // Per-event cost of the instrumentation the hot paths carry: one sharded
  // counter add plus one TraceSpan (two clock reads + histogram record) —
  // what the DP solver pays per solve. Gated in CI like the solver benches;
  // in EVVO_TELEMETRY=OFF builds the span compiles away and this measures
  // the counter alone.
  static telemetry::Counter& ctr = telemetry::counter("bench.telemetry.events");
  static telemetry::Histogram& hist = telemetry::histogram("bench.telemetry.span_ns");
  for (auto _ : state) {
    const telemetry::TraceSpan span(hist, "bench.telemetry");
    ctr.add();
  }
  benchmark::DoNotOptimize(ctr.value());
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_TelemetryOverhead);

}  // namespace
}  // namespace evvo

// Custom main instead of BENCHMARK_MAIN(): debug builds produced a bogus
// committed baseline once (BENCH_dp.json recorded with asserts on), so a
// non-NDEBUG binary refuses to run unless explicitly overridden, and every
// JSON report carries build + SIMD-backend tags that tools/bench_compare
// checks before trusting the numbers.
int main(int argc, char** argv) {
#if defined(NDEBUG)
  const bool release_build = true;
#else
  const bool release_build = false;
#endif
  if (!release_build && std::getenv("EVVO_ALLOW_DEBUG_BENCH") == nullptr) {
    std::fprintf(stderr,
                 "bench_perf: this binary was compiled without NDEBUG; debug numbers must never\n"
                 "become a baseline. Rebuild with -DCMAKE_BUILD_TYPE=Release, or set\n"
                 "EVVO_ALLOW_DEBUG_BENCH=1 to run anyway (output stays tagged evvo_build=debug).\n");
    return 1;
  }
  benchmark::AddCustomContext("evvo_build", release_build ? "release" : "debug");
  // evvo_simd is the backend the tree was compiled for; evvo_dp_kernel is the
  // DP relaxation kernel solve_dp actually runs on this CPU (the AVX2 copy is
  // chosen at run time, so the two differ on a default build of an AVX2 host).
  benchmark::AddCustomContext("evvo_simd", evvo::common::simd::kBackendName);
  benchmark::AddCustomContext("evvo_dp_kernel", evvo::core::dp_kernel_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
