// Load drivers: an open loop that dispatches on a schedule and a closed loop
// of vehicles that each wait for their reply.
//
// Open loop: the calling thread is the generator. It sleeps until each
// request's due time and queues it; client threads take whatever is queued
// (up to max_batch) as one dispatch. A request's latency runs from its due
// time - not from when a client got to it - to the moment its plan is
// materialized, so a stall that delays the queue behind it shows up in
// every delayed request (no coordinated omission).
//
// Closed loop: each client thread drives its vehicles in turn. A vehicle
// sends its request as a dispatch of one and waits for the reply, then
// advances along its served plan by the replan interval of logical time and
// asks again on its next turn (rolling horizon). Latency runs from the send
// time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "adapter.hpp"
#include "scenario.hpp"

namespace evvo::fleetbench {

/// One request's fate. The ticket is kept for the output check.
struct RequestRecord {
  Request request;
  cloud::PlanTicket ticket;
  std::uint64_t start_ns = 0;  ///< due time (open loop) or send time (closed loop)
  std::uint64_t latency_ns = 0;
  bool ok = false;
  double energy_mah = 0.0;   ///< served plan (0 when no plan)
  double trip_time_s = 0.0;  ///< served plan (0 when no plan)
  double length_m = 0.0;     ///< served plan (0 when no plan)
};

struct DriveOptions {
  unsigned clients = 1;
  std::size_t max_batch = 8;
  /// Record spans (telemetry histograms "bench.*") around each dispatch and
  /// each materialize, and sample the service's queue depth.
  bool traced = false;
  /// Traced runs only: reads the service's in-flight solve gauge.
  std::function<long()> queue_depth;
};

struct RunResult {
  std::vector<RequestRecord> records;  ///< sent requests (open loop: in due order)
  double wall_s = 0.0;
  double cpu_s = 0.0;                  ///< CPU time clients spent inside dispatches
  std::vector<std::uint64_t> generator_lag_ns;  ///< open loop: queued minus due
  std::size_t backlog_max = 0;         ///< open loop: most requests queued at once
  long queue_depth_max = 0;            ///< traced: highest sampled gauge value
};

RunResult run_open_loop(std::span<const TimedRequest> stream, const ServeFn& serve,
                        const DriveOptions& options);

/// Rolling-horizon fleet: `clients` x vehicles_per_client vehicles in
/// cohorts of cohort_per_client vehicles on one client. A cohort departs in
/// one phase bin, so its members follow one plan and ask for the same keys:
/// one solves, the others hit.
struct FleetPlan {
  unsigned vehicles_per_client = 8;
  unsigned cohort_per_client = 2;
  double replan_interval_s = 13.0;
  double seconds = 10.0;  ///< wall time before clients stop starting rounds
  std::uint64_t seed = 1;
};

RunResult run_closed_loop(const FleetPlan& fleet, const ServeFn& serve, const DriveOptions& options);

/// The full-trip departures the closed loop starts with (one per vehicle,
/// client-major); set-up warms them.
std::vector<Request> fleet_departures(const FleetPlan& fleet, unsigned clients);

/// Set-up: `requests` cut into `parts` contiguous chunks, each served on its
/// own thread in dispatches of at most `max_batch`. Latencies run from the
/// common start.
RunResult run_split(std::span<const Request> requests, const ServeFn& serve, unsigned parts,
                    std::size_t max_batch);

}  // namespace evvo::fleetbench
