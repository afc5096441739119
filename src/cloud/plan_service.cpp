#include "cloud/plan_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"

namespace evvo::cloud {

namespace {

/// Distinct telemetry namespace per service instance: tests and multi-
/// corridor fleets construct many services, and each one's counters must
/// start at zero for its stats() to mean anything.
int next_service_instance() {
  static std::atomic<int> next{0};
  // The ticket only names this instance's metrics; it orders no memory.
  // evvo-lint: allow(atomics-misuse)
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Departure-phase bin width [s]: the DP's default time-bin width
/// (DpResolution::dt_s), so the members of a bin, served one plan shifted in
/// time, depart no further apart than the solver's own time resolution.
constexpr double kPhaseBinS = 1.0;
/// Arrival-rate bin width [veh/h]: about the SAE demand forecast's own error
/// (RMSE 34-77 veh/h, EXPERIMENTS.md), so two rates that share a bin are
/// closer than the forecast can tell apart; finer bins would only split the
/// cache.
constexpr double kDemandBinVehH = 50.0;

}  // namespace

double signal_hyperperiod(const std::vector<road::TrafficLight>& lights) {
  long lcm_ds = 0;  // deciseconds
  for (const auto& light : lights) {
    const long cycle_ds = std::lround(light.cycle_duration() * 10.0);
    if (cycle_ds <= 0) throw std::invalid_argument("signal_hyperperiod: non-positive cycle");
    lcm_ds = lcm_ds == 0 ? cycle_ds : std::lcm(lcm_ds, cycle_ds);
  }
  return static_cast<double>(lcm_ds) / 10.0;
}

PlanService::PlanService(core::VelocityPlanner planner,
                         std::shared_ptr<const traffic::ArrivalRateProvider> arrivals,
                         CacheConfig cache)
    : planner_(std::move(planner)), arrivals_(std::move(arrivals)), cache_config_(cache),
      hyperperiod_s_(signal_hyperperiod(planner_.corridor().lights)),
      route_hash_(hash_corridor(planner_.corridor())) {
  // Replan keys quantize position to the solver's own grid (the same
  // rounding solve_dp applies to ds_m).
  const double length = planner_.corridor().length();
  const double n_hops =
      std::max(1.0, std::round(length / planner_.config().resolution.ds_m));
  grid_ds_m_ = length / n_hops;
  if (cache_config_.capacity == 0) throw std::invalid_argument("PlanService: zero cache capacity");
  if (cache_config_.shards == 0) throw std::invalid_argument("PlanService: zero shards");
  if (planner_.config().policy == core::SignalPolicy::kQueueAware && !arrivals_)
    throw std::invalid_argument("PlanService: queue-aware planning needs arrival rates");
  shards_.reserve(cache_config_.shards);
  const std::string prefix = "plan_service." + std::to_string(next_service_instance()) + ".";
  for (unsigned s = 0; s < cache_config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    const std::string sp = prefix + "shard" + std::to_string(s) + ".";
    shard->replans = &telemetry::counter(sp + "replans");
    shard->cache_hits = &telemetry::counter(sp + "cache_hits");
    shard->coalesced_hits = &telemetry::counter(sp + "coalesced_hits");
    shard->flight_waits = &telemetry::counter(sp + "flight_waits");
    shard->solver_runs = &telemetry::counter(sp + "solver_runs");
    shard->evictions = &telemetry::counter(sp + "evictions");
    shard->queue_depth = &telemetry::gauge(sp + "queue_depth");
    shards_.push_back(std::move(shard));
  }
  ticket_latency_ns_ = &telemetry::histogram(prefix + "ticket_ns", telemetry::Unit::kNanoseconds);
  batch_group_size_ = &telemetry::histogram(prefix + "batch_group_size", telemetry::Unit::kCount);
  batch_solve_ns_ =
      &telemetry::histogram(prefix + "batch_solve_ns", telemetry::Unit::kNanoseconds);
}

PlanService::~PlanService() = default;

ServiceStats PlanService::Shard::snapshot() const {
  ServiceStats out;
  out.replans = replans->value();
  out.cache_hits = cache_hits->value();
  out.coalesced_hits = coalesced_hits->value();
  out.solver_runs = solver_runs->value();
  out.evictions = evictions->value();
  out.queue_depth = queue_depth->value();
  // Derived, never counted: exact under concurrent readers by construction.
  out.requests = out.cache_hits + out.solver_runs;
  return out;
}

PlanService::CacheKey PlanService::key_for(Seconds depart_time) const {
  const double depart_time_s = depart_time.value();  // .value() seam
  // Rejected before any lookup or counter: a NaN time would otherwise bin
  // arbitrarily and reach the arrival-rate provider.
  if (!std::isfinite(depart_time_s))
    throw std::invalid_argument("PlanService: request time must be finite");
  double phase = 0.0;
  if (hyperperiod_s_ > 0.0) {
    phase = std::fmod(depart_time_s, hyperperiod_s_);
    if (phase < 0.0) phase += hyperperiod_s_;
  }
  const double demand =
      arrivals_ ? arrivals_->arrival_rate_veh_h(Seconds(depart_time_s)) : 0.0;
  // Same contract for the provider's answer: a NaN rate would bin
  // arbitrarily, and a negative one would be counted before QueueModel
  // rejected it inside the solve.
  if (!(std::isfinite(demand) && demand >= 0.0))
    throw std::invalid_argument("PlanService: arrival rate must be finite and non-negative");
  return CacheKey{std::lround(phase / kPhaseBinS), std::lround(demand / kDemandBinVehH)};
}

PlanService::CacheKey PlanService::replan_key_for(const ReplanRequest& request) const {
  // Written so that NaN fails the range check instead of passing it.
  if (!(request.position_m >= 0.0 && request.position_m < planner_.corridor().length()))
    throw std::invalid_argument("PlanService: replan position outside the corridor");
  if (!std::isfinite(request.speed_ms))
    throw std::invalid_argument("PlanService: replan speed must be finite");
  // A speed off the velocity grid (negative, or rounding past the top
  // level) is rejected here, before any counter, instead of becoming a
  // level the solve would silently clamp.
  const long vlevel = planner_.speed_level(MetersPerSecond(request.speed_ms));

  // Segment-memo quantization: snap the state to its bin's grid point. Every
  // request in the bin is served the canonical state's plan (misses solve it,
  // hits time-shift it) - the same approximation the phase and demand bins
  // already make for departures.
  const long n_hops = std::lround(planner_.corridor().length() / grid_ds_m_);
  const long layer =
      std::min(std::max(0L, std::lround(request.position_m / grid_ds_m_)), n_hops - 1);

  CacheKey key = key_for(Seconds(request.time_s));
  key.layer = layer;
  key.vlevel = vlevel;
  return key;
}

std::size_t PlanService::shard_of(const CacheKey& key) const {
  return shard_index(
      ShardKey{route_hash_, key.phase_bin, key.demand_bin, key.layer, key.vlevel},
      shards_.size());
}

PlanService::Shard& PlanService::shard_for(const CacheKey& key) const {
  return *shards_[shard_of(key)];
}

PlanService::RequestSlot PlanService::slot_for_plan(Seconds depart_time) const {
  const CacheKey key = key_for(depart_time);
  const ShardKey shard_key{route_hash_, key.phase_bin, key.demand_bin, key.layer, key.vlevel};
  return RequestSlot{shard_key, shard_index(shard_key, shards_.size())};
}

PlanService::RequestSlot PlanService::slot_for_replan(Meters position, MetersPerSecond speed,
                                                      Seconds request_time) const {
  const CacheKey key = replan_key_for(
      ReplanRequest{0, position.value(), speed.value(), request_time.value()});
  const ShardKey shard_key{route_hash_, key.phase_bin, key.demand_bin, key.layer, key.vlevel};
  return RequestSlot{shard_key, shard_index(shard_key, shards_.size())};
}

void PlanService::insert_into_cache_locked(Shard& shard, const CacheKey& key,
                                           std::shared_ptr<const core::PlannedProfile> profile,
                                           double reference_time) {
  if (shard.cache.find(key) != shard.cache.end()) return;
  shard.lru.push_front(key);
  shard.cache.emplace(key, CacheEntry{std::move(profile), reference_time, shard.lru.begin()});
  if (shard.cache.size() > cache_config_.capacity) {
    const CacheKey victim = shard.lru.back();
    shard.lru.pop_back();
    shard.cache.erase(victim);
    shard.evictions->add(1);
    EVVO_LOG(kDebug, "plan-service") << "evicted phase bin " << victim.phase_bin;
  }
}

PlanService::ServeState PlanService::begin_serve(const CacheKey& key, int vehicle_id,
                                                 Seconds request_time) {
  const double request_time_s = request_time.value();  // .value() seam
  ServeState state;
  state.shard = &shard_for(key);
  Shard& shard = *state.shard;
  if (key.layer >= 0) shard.replans->add(1);

  common::MutexLock lock(shard.shard_mutex);
  const auto it = shard.cache.find(key);
  if (it != shard.cache.end()) {
    shard.cache_hits->add(1);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    state.hit = PlanTicket{vehicle_id, it->second.profile,
                           request_time_s - it->second.reference_time, true};
    return state;
  }
  const auto fit = shard.in_flight.find(key);
  if (fit != shard.in_flight.end()) {
    state.flight = fit->second;
    return state;
  }
  state.flight = std::make_shared<InFlight>();
  shard.in_flight.emplace(key, state.flight);
  state.leader = true;
  // Counted at takeoff so the derived `requests` includes this request
  // even if the solve throws.
  shard.solver_runs->add(1);
  shard.queue_depth->add(1);
  return state;
}

PlanTicket PlanService::publish_leader_result(const CacheKey& key, ServeState& state,
                                              int vehicle_id, Seconds request_time,
                                              std::shared_ptr<const core::PlannedProfile> profile) {
  const double request_time_s = request_time.value();  // .value() seam
  Shard& shard = *state.shard;
  {
    // Publish to the cache and retire the flight atomically: any request
    // arriving from here on hits the cache instead of the flight.
    common::MutexLock lock(shard.shard_mutex);
    insert_into_cache_locked(shard, key, profile, request_time_s);
    shard.in_flight.erase(key);
  }
  shard.queue_depth->sub(1);
  {
    common::MutexLock flight_lock(state.flight->flight_mutex);
    state.flight->profile = profile;
    state.flight->reference_time = request_time_s;
    state.flight->done = true;
  }
  state.flight->completed.notify_all();
  return PlanTicket{vehicle_id, std::move(profile), 0.0, false};
}

void PlanService::publish_leader_error(const CacheKey& key, ServeState& state,
                                       std::exception_ptr error) {
  Shard& shard = *state.shard;
  {
    common::MutexLock lock(shard.shard_mutex);
    shard.in_flight.erase(key);
  }
  shard.queue_depth->sub(1);
  {
    common::MutexLock flight_lock(state.flight->flight_mutex);
    state.flight->error = std::move(error);
    state.flight->done = true;
  }
  state.flight->completed.notify_all();
}

PlanTicket PlanService::wait_follower(ServeState& state, int vehicle_id, Seconds request_time) {
  const double request_time_s = request_time.value();  // .value() seam
  Shard& shard = *state.shard;
  shard.flight_waits->add(1);
  std::optional<PlanTicket> ticket;
  {
    common::MutexLock flight_lock(state.flight->flight_mutex);
    while (!state.flight->done) state.flight->completed.wait(state.flight->flight_mutex);
    if (state.flight->error) std::rethrow_exception(state.flight->error);
    ticket.emplace(PlanTicket{vehicle_id, state.flight->profile,
                              request_time_s - state.flight->reference_time, true});
  }
  shard.cache_hits->add(1);
  shard.coalesced_hits->add(1);
  return std::move(*ticket);
}

core::PlannedProfile PlanService::solve_miss(const CacheKey& key, Seconds time) {
  if (key.layer < 0) return planner_.plan(time, arrivals_);
  // The miss solves the bin's canonical grid state, not the raw request
  // state, so every member of the bin is served a consistent tail.
  const double dv = planner_.config().resolution.dv_ms;
  return planner_.replan(Meters(static_cast<double>(key.layer) * grid_ds_m_),
                         MetersPerSecond(static_cast<double>(key.vlevel) * dv),
                         time, arrivals_);
}

template <class Request>
std::vector<PlanTicket> PlanService::serve_batch(std::span<const Request> requests) {
  const telemetry::Stopwatch since_entry;
  constexpr bool kReplan = std::is_same_v<Request, ReplanRequest>;
  const auto key_of = [this](const Request& r) {
    if constexpr (kReplan) {
      return replan_key_for(r);
    } else {
      return key_for(Seconds(r.depart_time_s));
    }
  };
  const auto time_of = [](const Request& r) {
    if constexpr (kReplan) {
      return Seconds(r.time_s);
    } else {
      return Seconds(r.depart_time_s);
    }
  };
  // Per-call scratch: a dispatch-sized call groups without touching the
  // heap (a larger one spills into it), which keeps a one-request call
  // close to a bare lookup. Left uninitialized: the arena writes before it
  // reads.
  std::array<std::byte, 2048> scratch;
  std::pmr::monotonic_buffer_resource arena(scratch.data(), scratch.size());

  // Quantize and group in one pass (first-occurrence order, so dispatch is
  // deterministic). Nothing is counted yet, so an invalid request rejects
  // the whole call uncounted. Each group takes one cache transaction: its
  // first member (the lead) runs the single-flight path, every other member
  // reuses its reference profile with a per-request time shift. Finding a
  // request's group scans the groups so far: a call is one dispatch window
  // (a fleet tick holds tens of distinct keys), where a scan beats a tree.
  struct Group {
    CacheKey key;
    std::size_t lead = 0;
    long size = 0;
  };
  std::pmr::vector<Group> groups(&arena);
  std::pmr::vector<std::size_t> group_of(&arena);
  groups.reserve(requests.size());
  group_of.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CacheKey key = key_of(requests[i]);
    std::size_t g = 0;
    while (g < groups.size() && !(groups[g].key == key)) ++g;
    if (g == groups.size()) groups.push_back(Group{key, i, 0});
    ++groups[g].size;
    group_of.push_back(g);
  }

  std::vector<PlanTicket> out(requests.size());
  std::exception_ptr first_error;
  const auto fail = [&first_error] {
    if (!first_error) first_error = std::current_exception();
  };
  const auto lead_served = [&](const Group& group, PlanTicket&& ticket) {
    out[group.lead] = std::move(ticket);
    since_entry.record(*ticket_latency_ns_);
  };

  // Phase A - admission: every group's lead goes through the cache/
  // single-flight step first, so the call's misses are known before any
  // solving starts. Hits are served here; elected leaders and followers of
  // other calls' flights wait in `pending`. A lead whose step throws (out of
  // memory) fails only its own group; the rest of the call is still served
  // and the first error is rethrown at the end.
  struct Pending {
    const Group* group;
    ServeState state;
  };
  std::pmr::vector<Pending> pending(&arena);
  std::size_t leaders = 0;
  for (const Group& group : groups) {
    batch_group_size_->record(group.size);
    const Request& lead = requests[group.lead];
    try {
      ServeState state = begin_serve(group.key, lead.vehicle_id, time_of(lead));
      if (state.hit.has_value()) {
        lead_served(group, std::move(*state.hit));
      } else {
        if (state.leader) ++leaders;
        pending.push_back(Pending{&group, std::move(state)});
      }
    } catch (...) {
      fail();
    }
  }

  // Phase B - leader solves, one at a time through solve_miss: the pooled
  // single-solve path. Each result is published the moment its solve
  // finishes, so its followers (in phase C here, or in concurrent calls)
  // stop waiting then, not when the last leader is done. Every elected
  // leader reaches an epilogue - publish or error - so followers can never
  // hang, and a failed solve fails only its own group.
  const auto solve_leaders = [&] {
    for (Pending& p : pending) {
      if (!p.state.leader) continue;
      const Group& group = *p.group;
      const Request& lead = requests[group.lead];
      try {
        auto profile =
            std::make_shared<const core::PlannedProfile>(solve_miss(group.key, time_of(lead)));
        lead_served(group, publish_leader_result(group.key, p.state, lead.vehicle_id,
                                                 time_of(lead), std::move(profile)));
      } catch (...) {
        publish_leader_error(group.key, p.state, std::current_exception());
        fail();
      }
    }
  };
  if (leaders >= 2) {
    const telemetry::TraceSpan solve_span(*batch_solve_ns_, "plan_service.batch_solve");
    solve_leaders();
  } else if (leaders == 1) {
    solve_leaders();
  }

  // Phase C - followers: their leaders run in concurrent calls (this call's
  // own leaders already completed in phase B, so waiting here cannot
  // deadlock). A leader's failure fails just this group.
  for (Pending& p : pending) {
    if (p.state.leader) continue;
    const Request& lead = requests[p.group->lead];
    try {
      lead_served(*p.group, wait_follower(p.state, lead.vehicle_id, time_of(lead)));
    } catch (...) {
      fail();
    }
  }

  // Phase D - fan out: members derive their tickets from the group lead's.
  if (groups.size() < requests.size()) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Group& group = groups[group_of[i]];
      const PlanTicket& lead_ticket = out[group.lead];
      if (i == group.lead || !lead_ticket.reference) continue;
      Shard& shard = shard_for(group.key);
      if constexpr (kReplan) shard.replans->add(1);
      shard.cache_hits->add(1);
      shard.coalesced_hits->add(1);
      const double shift = (time_of(requests[i]) - time_of(requests[group.lead])).value();
      out[i] = PlanTicket{requests[i].vehicle_id, lead_ticket.reference,
                          lead_ticket.time_shift_s + shift, true};
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

std::vector<PlanTicket> PlanService::request_plan_tickets(std::span<const PlanRequest> requests) {
  return serve_batch(requests);
}

std::vector<PlanTicket> PlanService::request_replan_tickets(
    std::span<const ReplanRequest> requests) {
  return serve_batch(requests);
}

ServiceStats PlanService::stats() const {
  ServiceStats total;
  for (const auto& shard : shards_) {
    const ServiceStats s = shard->snapshot();
    total.requests += s.requests;
    total.replans += s.replans;
    total.cache_hits += s.cache_hits;
    total.coalesced_hits += s.coalesced_hits;
    total.solver_runs += s.solver_runs;
    total.evictions += s.evictions;
    total.queue_depth += s.queue_depth;
  }
  return total;
}

std::vector<ServiceStats> PlanService::shard_stats() const {
  std::vector<ServiceStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->snapshot());
  return out;
}

}  // namespace evvo::cloud
