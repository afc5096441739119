#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/simd.hpp"

#ifndef EVVO_CXX_COMPILER
#define EVVO_CXX_COMPILER "unknown"
#endif
#ifndef EVVO_BUILD_TYPE
#define EVVO_BUILD_TYPE "unknown"
#endif

namespace evvo::fleetbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The bracketed mode of /sys/kernel/mm/transparent_hugepage/enabled.
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!in || !std::getline(in, line)) return "unknown";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "unknown";
  return line.substr(open + 1, close - open - 1);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx), values.end());
  return values[idx];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

/// The p99 of each run of kSliceRequests consecutive requests (by start
/// time), median over the runs; a window shorter than two runs is one run.
/// Each run has 20 samples beyond its p99, and a burst of host preemption
/// moves the p99 of the runs it falls in, not the median over them.
constexpr std::size_t kSliceRequests = 2000;

double sliced_p99(std::vector<std::pair<std::uint64_t, double>> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t slices = std::max<std::size_t>(1, n / kSliceRequests);
  std::vector<double> p99s;
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double> slice;
    for (std::size_t i = k * n / slices; i < (k + 1) * n / slices; ++i) slice.push_back(samples[i].second);
    p99s.push_back(percentile(std::move(slice), 0.99));
  }
  return median(std::move(p99s));
}

}  // namespace

WindowSummary summarize(const RunResult& run) {
  WindowSummary s;
  s.attempted = run.records.size();
  std::vector<double> all, misses;
  std::vector<std::pair<std::uint64_t, double>> timed_all, timed_hits;
  double energy_mah = 0.0, time_s = 0.0, length_km = 0.0;
  for (const RequestRecord& rec : run.records) {
    if (!rec.ok) {
      ++s.failed;
      continue;
    }
    const double ms = static_cast<double>(rec.latency_ns) * 1e-6;
    all.push_back(ms);
    timed_all.emplace_back(rec.start_ns, ms);
    if (rec.ticket.cache_hit) {
      timed_hits.emplace_back(rec.start_ns, ms);
    } else {
      misses.push_back(ms);
    }
    energy_mah += rec.energy_mah;
    time_s += rec.trip_time_s;
    length_km += rec.length_m * 1e-3;
  }
  s.misses = misses.size();
  s.latency_p50_ms = percentile(all, 0.50);
  s.latency_p99_ms = sliced_p99(std::move(timed_all));
  s.hit_latency_p99_ms = sliced_p99(std::move(timed_hits));
  s.miss_latency_p50_ms = percentile(misses, 0.50);
  const auto served = static_cast<double>(all.size());
  s.throughput_rps = run.wall_s > 0.0 ? served / run.wall_s : 0.0;
  s.cpu_ms_per_request = served > 0.0 ? run.cpu_s * 1e3 / served : 0.0;
  // Per km of plan: replans cover what is left of a trip, so a per-plan mean
  // would move with where the fleet happens to replan.
  s.plan_energy_mah_per_km = length_km > 0.0 ? energy_mah / length_km : 0.0;
  s.plan_time_s_per_km = length_km > 0.0 ? time_s / length_km : 0.0;
  return s;
}

std::string fingerprint_json(const WorkloadSpec& spec, const ThreadBudget& budget,
                             std::size_t max_batch) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(budget.nproc);
  out += ", \"simd\": " + quoted(common::simd::kBackendName);
  out += ", \"thp\": " + quoted(thp_mode());
  out += ", \"compiler\": " + quoted(EVVO_CXX_COMPILER);
  out += ", \"build_type\": " + quoted(EVVO_BUILD_TYPE);
  out += ", \"workload\": " + quoted(spec.name);
  out += ", \"loop\": " + quoted(spec.loop == LoopKind::kOpen ? "open" : "closed");
  if (spec.loop == LoopKind::kOpen) {
    out += ", \"rate_rps\": " + number(spec.rate_rps);
    out += ", \"miss_burst\": " + std::to_string(spec.miss_burst);
    out += ", \"burst_hits\": " + std::to_string(spec.burst_hits);
    out += ", \"burst_every\": " + std::to_string(spec.burst_every);
  } else {
    out += ", \"vehicles\": " + std::to_string(spec.vehicles_per_client * budget.clients);
    out += ", \"cohort_size\": " + std::to_string(spec.cohort_per_client);
    out += ", \"replan_interval_s\": " + number(spec.replan_interval_s);
  }
  out += ", \"threads\": {\"generator\": " + std::to_string(budget.generator) +
         ", \"clients\": " + std::to_string(budget.clients) +
         ", \"dp\": " + std::to_string(budget.dp_threads) +
         ", \"batch\": " + std::to_string(budget.batch_threads) + "}";
  out += ", \"max_batch\": " + std::to_string(max_batch);
  return out + "}";
}

double bucket_percentile(std::span<const std::pair<int, std::uint64_t>> buckets, double p) {
  std::uint64_t count = 0;
  for (const auto& [idx, n] : buckets) count += n;
  if (count == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [idx, n] : buckets) {
    seen += n;
    if (seen >= rank) return static_cast<double>(telemetry::Histogram::bucket_lower(idx));
  }
  return static_cast<double>(telemetry::Histogram::bucket_lower(buckets.back().first));
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        std::span<const Metric> metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}}";
}

void print_table(std::string_view title, std::span<const Metric> metrics) {
  std::printf("# %.*s\n", static_cast<int>(title.size()), title.data());
  for (const Metric& m : metrics) {
    std::printf("#   %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace evvo::fleetbench
