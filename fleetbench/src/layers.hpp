// Per-layer metrics of a traced run, measured from outside the program.
//
// Two sources, neither of which adds tracing inside the program:
//  - window_layers(): what the traced window did, read from the counters and
//    histograms the program already exports (telemetry::snapshot(),
//    ServiceStats) plus the benchmark's own spans around each dispatch and
//    each materialize ("bench.*" histograms).
//  - replay_layers(): the window's miss keys replayed one layer at a time on
//    a fresh planner - T_q windows, event build, DP solve, and the batched
//    kernel against pooled sequential solves - each call timed by the
//    benchmark.
#pragma once

#include <span>
#include <vector>

#include "driver.hpp"
#include "report.hpp"
#include "scenario.hpp"

namespace evvo::fleetbench {

/// `snap` must cover exactly the traced window (telemetry::reset_all() just
/// before it).
std::vector<Metric> window_layers(const telemetry::Snapshot& snap, const RunResult& run,
                                  const cloud::ServiceStats& stats);

/// Replays up to `sample` of the solves behind `records` (leader tickets;
/// falls back to `setup_records` when the window solved nothing).
std::vector<Metric> replay_layers(const Scenario& scenario, std::span<const RequestRecord> records,
                                  std::span<const RequestRecord> setup_records, std::size_t sample,
                                  std::uint64_t seed);

}  // namespace evvo::fleetbench
