// Vehicular-cloud planning service (paper Sec. I, refs [6][7]): vehicles
// upload their state (departure time) and the cloud returns the optimal
// velocity profile, amortizing the DP across the fleet.
//
// Caching exploits the structure of the problem: with fixed-time signals the
// whole constraint set repeats with the signals' hyperperiod H (the lcm of
// the cycle durations), and the queue predictions depend on demand only
// through the (slowly varying) arrival rate. Two requests whose departure
// times are congruent mod H and whose demand falls in the same bin therefore
// receive the *same* plan, shifted in time. The cache key is
// (policy, departure phase bin, demand bin); hits are served by time-shifting
// the cached profile.
//
// Replanning (rolling horizon) extends the same idea to mid-route requests:
// the segment memo keys a cached plan *tail* by the quantized vehicle state -
// (grid layer of the position, velocity level, cycle offset of the request
// time, demand bin). Two vehicles at the same layer and speed whose clocks
// are congruent mod H face the same remaining problem, so the cached tail is
// served time-shifted; misses canonicalize the state to the bin's grid point
// and run VelocityPlanner::replan, a cold DP solve over a pooled workspace.
//
// Sharding: the cache is partitioned into CacheConfig::shards independent
// shards, each with its own mutex, bounded LRU cache, in-flight table, and
// statistics. A request's cache identity - (corridor hash, phase bin,
// demand bin, layer, vlevel) - routes to its shard through the stable
// integer mix in cloud/shard.hpp, so the same identity always lands on the
// same shard and single-flight dedup stays global. shards = 1 reproduces the
// original single-mutex layout exactly.
//
// Every validated request is served: from the cache, from a coalesced
// in-flight solve, or by a solve of its own. Cached plans are served at any
// age; the LRU bound is the only eviction.
//
// Concurrency: misses are deduplicated per key with a single-flight
// protocol. The first requester of a key becomes its leader and runs the
// solver outside every service lock; concurrent requesters of the same key
// wait on the leader's in-flight record and are served (as cache hits) from
// its result; requesters of distinct keys solve fully in parallel. Cache
// lookups only ever take the short shard lock, so hits never wait behind a
// solve. Statistics are per-shard registry-backed telemetry counters
// (common/telemetry.hpp, names "plan_service.<instance>.shard<i>.*");
// stats() aggregates relaxed reads without stopping the service. `requests`
// is not tracked separately: it is derived as cache_hits + solver_runs, so
// that identity holds at every instant — under concurrent readers, not just
// at quiescence. A request between arrival and outcome is counted nowhere
// yet (its in-flight window is visible on the queue_depth gauge instead).
//
// Serving is zero-copy: the cache stores immutable reference profiles behind
// shared_ptr, and both entry points return tickets, {reference, time shift},
// without copying a node vector under any lock. There is one entry point per
// request kind, each taking a span: a single request is a span of one, and a
// caller that needs the nodes runs PlanTicket::materialize() itself, outside
// every service lock.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cloud/shard.hpp"
#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "common/telemetry.hpp"
#include "common/thread_annotations.hpp"
#include "core/planner.hpp"

namespace evvo::cloud {

struct CacheConfig {
  std::size_t capacity = 256;  ///< cached plans per shard (LRU eviction)
  /// Unused: no code reads it. Declared only because the fleet benchmark's
  /// scenario setup still assigns it; it goes with that benchmark's next
  /// change.
  unsigned batch_threads = 0;
  /// Cache shards (independent mutex + LRU + in-flight table each). 1 keeps
  /// the original single-mutex layout; fleet serving uses 8+.
  unsigned shards = 1;
};

struct PlanRequest {
  int vehicle_id = 0;
  double depart_time_s = 0.0;
};

/// Mid-route replan: the vehicle's current state on the service's corridor.
struct ReplanRequest {
  int vehicle_id = 0;
  double position_m = 0.0;  ///< corridor coordinate, [0, corridor length)
  double speed_ms = 0.0;
  double time_s = 0.0;      ///< absolute time of the request
};

/// Zero-copy serving handle: the immutable cached reference profile plus the
/// time shift that maps it onto this request. materialize() copies the
/// shifted node vector out; callers that only need a few nodes (or none)
/// never pay it.
struct [[nodiscard]] PlanTicket {
  int vehicle_id = 0;
  std::shared_ptr<const core::PlannedProfile> reference;
  double time_shift_s = 0.0;
  bool cache_hit = false;

  core::PlannedProfile materialize() const { return reference->time_shifted(time_shift_s); }
};

struct [[nodiscard]] ServiceStats {
  /// Full-trip and replan requests combined. Derived, not counted:
  /// requests == cache_hits + solver_runs by construction, at every instant
  /// (see the header comment).
  long requests = 0;
  long replans = 0;         ///< subset of requests that were replans
  long cache_hits = 0;      ///< served from cache or a coalesced in-flight solve
  long coalesced_hits = 0;  ///< subset of cache_hits that waited on (or batch-
                            ///< grouped onto) a leader's solve
  long solver_runs = 0;
  long evictions = 0;       ///< LRU capacity evictions
  long queue_depth = 0;     ///< in-flight solves at snapshot time (gauge)
  /// Always 0: the service turns no request away. Declared only because the
  /// fleet benchmark still reads it; it goes with that benchmark's next
  /// change.
  long rejections = 0;
};

class PlanService {
 public:
  /// The routing decision for one request: its full cache identity (the
  /// corridor hash plus every quantized bin) and the shard it lands on.
  /// Exposed for routing tests and workload harnesses.
  struct [[nodiscard]] RequestSlot {
    ShardKey key;
    std::size_t shard = 0;
  };

  /// The service owns a planner (route + policy + energy model) and a demand
  /// source shared with the queue predictor.
  PlanService(core::VelocityPlanner planner,
              std::shared_ptr<const traffic::ArrivalRateProvider> arrivals,
              CacheConfig cache = {});
  ~PlanService();

  /// Serves a span of departure-time requests: tickets come back in request
  /// order. Same-key requests in the span coalesce onto one cache lookup
  /// (and, on a miss, one solve); a key another call is already solving is
  /// waited for instead of solved again. Thread-safe; see the single-flight
  /// notes in the header comment.
  ///
  /// Throws std::invalid_argument, before any lookup or counter, when a
  /// request has a non-finite departure time or the arrival-rate provider
  /// answers with a NaN, infinite or negative rate: one bad request rejects
  /// the whole span. A failed solve fails only its own group: the call
  /// serves every other group, then rethrows the first such error.
  std::vector<PlanTicket> request_plan_tickets(std::span<const PlanRequest> requests);

  /// Serves a span of mid-route replans, the rolling-horizon path: the
  /// segment memo is keyed by quantized (position layer, velocity level,
  /// cycle offset, demand), see the header comment, and each ticket's
  /// profile starts at its state's grid point in corridor coordinates. Same
  /// ordering, coalescing and errors as request_plan_tickets, and
  /// std::invalid_argument also for a position outside the corridor and for
  /// a non-finite or off-grid speed.
  std::vector<PlanTicket> request_replan_tickets(std::span<const ReplanRequest> requests);

  /// Where a departure-time request routes. Pure function of the request and
  /// the service configuration (stable across processes and rebuilds).
  RequestSlot slot_for_plan(Seconds depart_time) const;

  /// Where a mid-route replan routes; performs the same position/speed
  /// quantization the serving path uses. Throws std::invalid_argument for
  /// positions outside the corridor.
  RequestSlot slot_for_replan(Meters position, MetersPerSecond speed, Seconds request_time) const;

  /// Signals' hyperperiod H [s]; 0 when the corridor has no lights (every
  /// departure is then equivalent and one plan serves all).
  double hyperperiod() const { return hyperperiod_s_; }

  /// Content hash of the service's corridor (the route_hash of every
  /// RequestSlot this service produces).
  std::uint64_t corridor_hash() const { return route_hash_; }

  std::size_t shard_count() const { return shards_.size(); }

  /// Aggregate counters across all shards (relaxed snapshot; exact once the
  /// service is quiescent).
  ServiceStats stats() const;

  /// Per-shard counters, indexed by shard. Fieldwise, their sum is stats().
  std::vector<ServiceStats> shard_stats() const;

  /// Same-key group sizes: one sample per group per request_*_tickets call
  /// (hit groups included). Workload harnesses report its percentiles;
  /// empty until the first call on this instance.
  const telemetry::Histogram& batch_group_sizes() const { return *batch_group_size_; }

 private:
  struct CacheKey {
    long phase_bin;
    long demand_bin;
    /// Replan quantization (the segment-memo half of the key): grid layer of
    /// the position and velocity level of the speed. Full-trip plans use
    /// (-1, -1) so they can never collide with a replan of the same phase.
    long layer = -1;
    long vlevel = -1;
    auto operator<=>(const CacheKey&) const = default;
  };
  struct CacheEntry {
    std::shared_ptr<const core::PlannedProfile> profile;  // planned at reference_time
    double reference_time;
    std::list<CacheKey>::iterator lru_pos;
  };
  /// One in-flight solve. The leader fills profile/reference_time (or
  /// error) and flips done under `mutex`; followers wait on `completed`.
  struct InFlight {
    common::Mutex flight_mutex{common::LockRank::kPlanFlight};
    common::CondVar completed;
    bool done EVVO_GUARDED_BY(flight_mutex) = false;
    std::shared_ptr<const core::PlannedProfile> profile EVVO_GUARDED_BY(flight_mutex);
    double reference_time EVVO_GUARDED_BY(flight_mutex) = 0.0;
    std::exception_ptr error EVVO_GUARDED_BY(flight_mutex);
  };
  /// One cache shard: its own lock, LRU cache, in-flight table, and
  /// statistics. Counters are registry-backed (common/telemetry.hpp,
  /// registered by the service constructor under
  /// "plan_service.<instance>.shard<i>."), so followers and the batch
  /// grouping path account lock-free, stats() reads without stopping
  /// traffic, and the same numbers surface in telemetry::snapshot().
  /// `requests` has no counter: snapshot() derives it as
  /// cache_hits + solver_runs, making the stats() identity exact under
  /// concurrent readers.
  struct Shard {
    mutable common::Mutex shard_mutex{common::LockRank::kPlanShard};
    std::map<CacheKey, CacheEntry> cache EVVO_GUARDED_BY(shard_mutex);
    std::list<CacheKey> lru EVVO_GUARDED_BY(shard_mutex);  // front = most recent
    std::map<CacheKey, std::shared_ptr<InFlight>> in_flight EVVO_GUARDED_BY(shard_mutex);

    telemetry::Counter* replans = nullptr;
    telemetry::Counter* cache_hits = nullptr;
    telemetry::Counter* coalesced_hits = nullptr;
    /// Followers that blocked on a leader's in-flight solve (a subset of
    /// coalesced_hits: batch-grouped members never wait). Telemetry-only;
    /// not part of ServiceStats.
    telemetry::Counter* flight_waits = nullptr;
    telemetry::Counter* solver_runs = nullptr;
    telemetry::Counter* evictions = nullptr;
    telemetry::Gauge* queue_depth = nullptr;

    ServiceStats snapshot() const;
  };

  CacheKey key_for(Seconds depart_time) const;
  CacheKey replan_key_for(const ReplanRequest& request) const;
  Shard& shard_for(const CacheKey& key) const;
  std::size_t shard_of(const CacheKey& key) const;
  /// Outcome of the single-flight admission step (begin_serve): served from
  /// cache (`hit`), elected leader of a fresh flight (`leader`, solve then
  /// publish), or follower of an existing flight (wait on it).
  struct ServeState {
    Shard* shard = nullptr;
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    std::optional<PlanTicket> hit;
  };
  /// The lookup/registration step: cache probe, flight join, or leader
  /// election (counts solver_runs/queue_depth at takeoff).
  ServeState begin_serve(const CacheKey& key, int vehicle_id, Seconds request_time);
  /// Leader epilogue: publishes `profile` to the cache, retires the flight,
  /// wakes followers, and returns the leader's ticket.
  PlanTicket publish_leader_result(const CacheKey& key, ServeState& state, int vehicle_id,
                                   Seconds request_time,
                                   std::shared_ptr<const core::PlannedProfile> profile);
  /// Leader failure epilogue: retires the flight and wakes followers with
  /// `error`. Every elected leader must reach exactly one of the two
  /// epilogues or followers would wait forever.
  void publish_leader_error(const CacheKey& key, ServeState& state, std::exception_ptr error);
  /// Follower epilogue: waits out the leader's flight and derives a ticket
  /// (rethrows the leader's error).
  PlanTicket wait_follower(ServeState& state, int vehicle_id, Seconds request_time);
  void insert_into_cache_locked(Shard& shard, const CacheKey& key,
                                std::shared_ptr<const core::PlannedProfile> profile,
                                double reference_time) EVVO_REQUIRES(shard.shard_mutex);
  /// The solve a miss of `key` at `time` runs: a full plan, or (layer >= 0)
  /// a replan from the bin's canonical grid state.
  core::PlannedProfile solve_miss(const CacheKey& key, Seconds time);
  /// The one serving driver behind both entry points. Quantizes every
  /// request (one invalid request rejects the call uncounted), groups
  /// same-key requests in first-occurrence order, admits each group's first
  /// member through begin_serve, solves the admitted leaders one at a time
  /// through solve_miss (the pooled single-solve path), publishing each
  /// result as soon as its solve finishes, then waits out followers and
  /// derives every other member's ticket from its group lead's (one cache
  /// transaction per group).
  template <class Request>
  std::vector<PlanTicket> serve_batch(std::span<const Request> requests);

  core::VelocityPlanner planner_;
  std::shared_ptr<const traffic::ArrivalRateProvider> arrivals_;
  CacheConfig cache_config_;
  double hyperperiod_s_;
  double grid_ds_m_;  ///< layer spacing the solver will use on this corridor
  std::uint64_t route_hash_;

  /// Shards are heap-allocated because Mutex pins them in place; the vector
  /// itself is immutable after construction.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Service-level telemetry, registered alongside the shard counters. One
  /// ticket_ns sample per served group: from call entry until the group's
  /// lead ticket exists (a hit's lookup, a leader's solve and publish, or a
  /// follower's wait). Groups that fail record none.
  telemetry::Histogram* ticket_latency_ns_ = nullptr;
  /// Same-key group sizes, one sample per group per call.
  telemetry::Histogram* batch_group_size_ = nullptr;
  /// Duration of serve_batch's leader solves when it elects two or more
  /// (covers the whole loop of single solves and their publishes).
  telemetry::Histogram* batch_solve_ns_ = nullptr;
};

/// lcm of the signal cycle durations [s] (integer deciseconds internally);
/// returns 0 for an empty light set.
double signal_hyperperiod(const std::vector<road::TrafficLight>& lights);

}  // namespace evvo::cloud
