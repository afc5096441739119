// Metric arithmetic and the benchmark's output format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"
#include "driver.hpp"
#include "scenario.hpp"

namespace evvo::fleetbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Peak resident set of the process so far [MiB].
double peak_rss_mb();

/// The end-to-end metrics of one timed window (see README.md for each
/// definition). `miss_latency_p50_ms` is returned separately: hit_heavy has
/// no misses, so it is not an end-to-end metric of every workload.
struct WindowSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t misses = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double hit_latency_p99_ms = 0.0;
  double miss_latency_p50_ms = 0.0;
  double throughput_rps = 0.0;
  double cpu_ms_per_request = 0.0;
  double plan_energy_mah_per_km = 0.0;
  double plan_time_s_per_km = 0.0;
};
WindowSummary summarize(const RunResult& run);

/// Host and build fingerprint plus the thread budget, as one JSON object.
std::string fingerprint_json(const WorkloadSpec& spec, const ThreadBudget& budget,
                             std::size_t max_batch);

/// Percentile of a telemetry histogram distribution given as sparse buckets
/// (same rank rule and bucket-lower-bound answer as Histogram::percentile).
double bucket_percentile(std::span<const std::pair<int, std::uint64_t>> buckets, double p);

/// The final line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        std::span<const Metric> metrics);

/// Human-readable table of `metrics` (stdout, before the result line).
void print_table(std::string_view title, std::span<const Metric> metrics);

}  // namespace evvo::fleetbench
