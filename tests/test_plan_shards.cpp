// Corridor sharding of the PlanService: routing determinism (the shard of a
// key is a pure value function, stable across processes and rebuilds),
// LRU eviction order, serving every miss while another solve runs, and
// per-shard statistics accounting. The timing-sensitive concurrent-miss test
// synchronizes on the queue_depth gauge, not on sleeps.
#include "cloud/plan_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cloud/shard.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace evvo::cloud {
namespace {

std::shared_ptr<traffic::ConstantArrivalRate> demand(double veh_h) {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(veh_h));
}

/// Same small corridor as test_plan_service_concurrent: fast solves, one
/// light with a 60 s hyperperiod so phase bins are easy to construct.
core::VelocityPlanner make_planner() {
  road::Corridor corridor{road::Route({{0.0, 350.0, 14.0, 0.0, 0.0},
                                       {350.0, 600.0, 12.0, 0.0, 0.01}}),
                          {road::TrafficLight(300.0, 27.0, 33.0)},
                          {}};
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kGreenWindow;
  cfg.resolution.horizon_s = 200.0;
  return core::VelocityPlanner(std::move(corridor), ev::EnergyModel{}, cfg);
}

/// A single request is a span of one.
PlanTicket plan_one(PlanService& service, const PlanRequest& request) {
  return std::move(service.request_plan_tickets({&request, 1}).front());
}

PlanTicket replan_one(PlanService& service, const ReplanRequest& request) {
  return std::move(service.request_replan_tickets({&request, 1}).front());
}

CacheConfig sharded(unsigned shards, std::size_t capacity = 256) {
  CacheConfig cache;
  cache.shards = shards;
  cache.capacity = capacity;
  return cache;
}

void expect_stats_eq(const ServiceStats& a, const ServiceStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.coalesced_hits, b.coalesced_hits);
  EXPECT_EQ(a.solver_runs, b.solver_runs);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
}

// --- Routing determinism -------------------------------------------------

TEST(ShardRouting, MixIsStableAcrossRebuilds) {
  // Baked expectations: the mix is pinned by the splitmix64 algorithm, so
  // these constants must never change - a drift would silently break the
  // cross-process routing contract (and every shard-affinity assumption).
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
  const ShardKey plan_key{0x9e3779b97f4a7c15ull, 5, 2, -1, -1};
  const ShardKey replan_key{0x9e3779b97f4a7c15ull, 5, 2, 200, 30};
  const ShardKey other_route{0x123456789abcdef0ull, 0, 0, -1, -1};
  EXPECT_EQ(shard_mix(plan_key), 0x598b56beacf43961ull);
  EXPECT_EQ(shard_mix(replan_key), 0xbb3fd050ff8ed3f0ull);
  EXPECT_EQ(shard_mix(other_route), 0xc563ed012f40b2c9ull);
  EXPECT_EQ(shard_index(plan_key, 8), 1u);
  EXPECT_EQ(shard_index(replan_key, 8), 0u);
  EXPECT_EQ(shard_index(other_route, 5), 4u);
}

TEST(ShardRouting, SameKeySameShardAndSingleShardDegenerates) {
  const ShardKey key{42, 7, 1, 12, 5};
  for (std::size_t n : {1u, 2u, 8u, 13u}) {
    const std::size_t s = shard_index(key, n);
    EXPECT_LT(s, n);
    EXPECT_EQ(s, shard_index(key, n));  // pure function of the value
  }
  EXPECT_EQ(shard_index(key, 1), 0u);
}

TEST(ShardRouting, EveryKeyFieldFeedsTheMix) {
  const ShardKey base{42, 7, 1, 12, 5};
  ShardKey k = base;
  k.route_hash ^= 1;
  EXPECT_NE(shard_mix(k), shard_mix(base));
  k = base;
  k.phase_bin += 1;
  EXPECT_NE(shard_mix(k), shard_mix(base));
  k = base;
  k.demand_bin += 1;
  EXPECT_NE(shard_mix(k), shard_mix(base));
  k = base;
  k.layer += 1;
  EXPECT_NE(shard_mix(k), shard_mix(base));
  k = base;
  k.vlevel += 1;
  EXPECT_NE(shard_mix(k), shard_mix(base));
}

TEST(ShardRouting, SlotsAgreeAcrossServiceInstances) {
  // Two services over the same corridor and config quantize and route
  // identically - the slot is a property of (corridor, config, request),
  // not of the instance.
  PlanService a(make_planner(), demand(500.0), sharded(8));
  PlanService b(make_planner(), demand(500.0), sharded(8));
  EXPECT_EQ(a.corridor_hash(), b.corridor_hash());
  for (double t : {5.0, 17.0, 30.0, 65.0, 125.0}) {
    const auto slot_a = a.slot_for_plan(Seconds(t));
    const auto slot_b = b.slot_for_plan(Seconds(t));
    EXPECT_EQ(slot_a.key, slot_b.key);
    EXPECT_EQ(slot_a.shard, slot_b.shard);
    EXPECT_EQ(slot_a.key.route_hash, a.corridor_hash());
    EXPECT_LT(slot_a.shard, a.shard_count());
  }
  const auto ra = a.slot_for_replan(Meters(200.0), MetersPerSecond(10.0), Seconds(65.0));
  const auto rb = b.slot_for_replan(Meters(200.0), MetersPerSecond(10.0), Seconds(65.0));
  EXPECT_EQ(ra.key, rb.key);
  EXPECT_EQ(ra.shard, rb.shard);
}

TEST(ShardRouting, PhaseCongruentDeparturesShareASlot) {
  PlanService service(make_planner(), demand(500.0), sharded(8));
  ASSERT_DOUBLE_EQ(service.hyperperiod(), 60.0);
  const auto slot = service.slot_for_plan(Seconds(5.0));
  EXPECT_EQ(service.slot_for_plan(Seconds(65.0)).key, slot.key);
  EXPECT_EQ(service.slot_for_plan(Seconds(65.0)).shard, slot.shard);
  EXPECT_NE(service.slot_for_plan(Seconds(25.0)).key, slot.key);
}

TEST(ShardRouting, ReplanSlotsNeverCollideWithPlanSlots) {
  PlanService service(make_planner(), demand(500.0), sharded(8));
  const auto plan = service.slot_for_plan(Seconds(5.0));
  const auto replan = service.slot_for_replan(Meters(0.0), MetersPerSecond(0.0), Seconds(5.0));
  EXPECT_EQ(plan.key.layer, -1);
  EXPECT_EQ(plan.key.vlevel, -1);
  EXPECT_GE(replan.key.layer, 0);
  EXPECT_NE(plan.key, replan.key);
  EXPECT_THROW((void)service.slot_for_replan(Meters(-1.0), MetersPerSecond(0.0), Seconds(0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)service.slot_for_replan(Meters(600.0), MetersPerSecond(0.0), Seconds(0.0)),
               std::invalid_argument);
}

// --- Config validation ---------------------------------------------------

TEST(PlanShards, ValidatesShardConfig) {
  EXPECT_THROW(PlanService(make_planner(), demand(500.0), sharded(0)), std::invalid_argument);
}

// --- Eviction order ------------------------------------------------------

TEST(PlanShards, LruEvictsLeastRecentlyTouched) {
  // capacity 2, one shard: insert A, B; touch A; insert C. The LRU victim
  // must be B (A was refreshed by its hit), so A stays hot and B re-solves.
  PlanService service(make_planner(), demand(500.0), sharded(1, 2));
  (void)plan_one(service, {0, 5.0});    // A: solve
  (void)plan_one(service, {1, 25.0});   // B: solve
  (void)plan_one(service, {2, 65.0});   // A again: hit, refreshes LRU
  (void)plan_one(service, {3, 45.0});   // C: solve, evicts B
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solver_runs, 3);
  EXPECT_EQ(stats.evictions, 1);

  EXPECT_TRUE(plan_one(service, {4, 125.0}).cache_hit);   // A still cached
  EXPECT_TRUE(plan_one(service, {5, 105.0}).cache_hit);   // C still cached
  EXPECT_FALSE(plan_one(service, {6, 85.0}).cache_hit);   // B was the victim
  stats = service.stats();
  EXPECT_EQ(stats.solver_runs, 4);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
}

TEST(PlanShards, CapacityIsPerShard) {
  // The same 3-key workload that evicts at shards=1/capacity=2 fits when
  // spread across 8 shards of capacity 2 (the keys land on distinct shards).
  PlanService service(make_planner(), demand(500.0), sharded(8, 2));
  const auto s1 = service.slot_for_plan(Seconds(5.0)).shard;
  const auto s2 = service.slot_for_plan(Seconds(25.0)).shard;
  const auto s3 = service.slot_for_plan(Seconds(45.0)).shard;
  ASSERT_TRUE(s1 != s2 || s1 != s3 || s2 != s3);  // routing spreads these keys
  (void)plan_one(service, {0, 5.0});
  (void)plan_one(service, {1, 25.0});
  (void)plan_one(service, {2, 45.0});
  EXPECT_LE(service.stats().evictions, 0);
}

// --- Serving -------------------------------------------------------------

TEST(PlanShards, CachedPlansServeAtAnyAge) {
  PlanService service(make_planner(), demand(500.0));
  (void)plan_one(service, {0, 5.0});
  EXPECT_TRUE(plan_one(service, {1, 5.0 + 60.0 * 1000}).cache_hit);
}

TEST(PlanShards, EveryMissIsServedWhileAnotherSolves) {
  CacheConfig cache;
  cache.shards = 1;
  // A solve on this corridor takes milliseconds, so a main thread that is
  // descheduled meanwhile can miss the whole flight; the scenario then
  // starts over on a fresh service rather than wait for a flight that has
  // already landed.
  for (int attempt = 0; attempt < 100; ++attempt) {
    PlanService service(make_planner(), demand(500.0), cache);

    // Hold key A's leader in flight on the only shard...
    std::atomic<bool> leader_done{false};
    std::jthread leader([&] {
      (void)plan_one(service, {0, 5.0});
      leader_done = true;
    });
    while (service.stats().queue_depth < 1 && !leader_done) std::this_thread::yield();
    if (leader_done) continue;

    // ...then one call brings a distinct cold key B on the same shard, which
    // is solved beside A's flight, and a phase-congruent request for A, which
    // coalesces onto that flight.
    const std::vector<PlanRequest> call{{1, 25.0}, {2, 65.0}};
    const std::vector<PlanTicket> tickets = service.request_plan_tickets(call);
    EXPECT_FALSE(tickets[0].cache_hit);
    EXPECT_TRUE(tickets[1].cache_hit);
    leader.join();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 3);
    EXPECT_EQ(stats.solver_runs, 2);
    EXPECT_EQ(stats.cache_hits, 1);
    EXPECT_EQ(stats.coalesced_hits, 1);
    EXPECT_EQ(stats.queue_depth, 0);
    EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
    return;
  }
  FAIL() << "key A's flight landed before it was seen in 100 attempts";
}

// --- Per-shard statistics ------------------------------------------------

TEST(PlanShards, PerShardStatsSumToAggregate) {
  PlanService service(make_planner(), demand(500.0), sharded(8));
  for (int i = 0; i < 12; ++i) (void)plan_one(service, {i, 5.0 + 5.0 * i});
  for (int i = 0; i < 12; ++i) (void)plan_one(service, {100 + i, 65.0 + 5.0 * i});  // hits
  for (int i = 0; i < 6; ++i) (void)replan_one(service, {200 + i, 200.0, 10.0, 30.0 + 60.0 * i});

  const std::vector<ServiceStats> per_shard = service.shard_stats();
  ASSERT_EQ(per_shard.size(), service.shard_count());
  ServiceStats sum;
  int populated = 0;
  for (const ServiceStats& s : per_shard) {
    EXPECT_EQ(s.requests, s.cache_hits + s.solver_runs);  // per shard too
    if (s.requests > 0) ++populated;
    sum.requests += s.requests;
    sum.replans += s.replans;
    sum.cache_hits += s.cache_hits;
    sum.coalesced_hits += s.coalesced_hits;
    sum.solver_runs += s.solver_runs;
    sum.evictions += s.evictions;
    sum.queue_depth += s.queue_depth;
  }
  expect_stats_eq(sum, service.stats());
  EXPECT_GE(populated, 2);  // the mix spread this workload over several shards
  EXPECT_EQ(sum.requests, 30);
  EXPECT_EQ(sum.replans, 6);
}

// --- Tickets -------------------------------------------------------------

TEST(PlanShards, TicketMaterializesTheResponseProfile) {
  // The materialized ticket is the cold solve of its bin's first request,
  // time-shifted to this request: bit-equal, miss and hits alike.
  PlanService ticketed(make_planner(), demand(500.0), sharded(8));
  const core::PlannedProfile cold = make_planner().plan(Seconds(5.0), demand(500.0));
  for (double t : {5.0, 65.0, 125.0}) {
    const PlanTicket ticket = plan_one(ticketed, {7, t});
    ASSERT_TRUE(ticket.reference);
    const core::PlannedProfile materialized = ticket.materialize();
    const core::PlannedProfile expected = cold.time_shifted(t - 5.0);
    const auto& a = materialized.nodes();
    const auto& b = expected.nodes();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].position_m, b[i].position_m);
      EXPECT_EQ(a[i].speed_ms, b[i].speed_ms);
      EXPECT_EQ(a[i].time_s, b[i].time_s);
      EXPECT_EQ(a[i].energy_mah, b[i].energy_mah);
    }
  }
  // Hits share the cached reference instead of copying it.
  const PlanTicket first = plan_one(ticketed, {8, 185.0});
  const PlanTicket second = plan_one(ticketed, {9, 245.0});
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.reference.get(), second.reference.get());
  EXPECT_DOUBLE_EQ(second.time_shift_s - first.time_shift_s, 60.0);
}

TEST(PlanShards, BatchTicketsMatchSingleRequests) {
  PlanService batched(make_planner(), demand(500.0), sharded(8));
  PlanService single(make_planner(), demand(500.0), sharded(8));
  std::vector<PlanRequest> requests;
  for (int i = 0; i < 9; ++i) requests.push_back({i, 5.0 + 10.0 * (i % 3) + 60.0 * (i / 3)});

  const std::vector<PlanTicket> tickets = batched.request_plan_tickets(requests);
  ASSERT_EQ(tickets.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlanTicket expected = plan_one(single, requests[i]);
    EXPECT_EQ(tickets[i].vehicle_id, expected.vehicle_id);
    EXPECT_EQ(tickets[i].cache_hit, expected.cache_hit);
    const core::PlannedProfile materialized = tickets[i].materialize();
    const core::PlannedProfile expected_profile = expected.materialize();
    const auto& a = materialized.nodes();
    const auto& b = expected_profile.nodes();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t n = 0; n < a.size(); ++n) {
      EXPECT_EQ(a[n].time_s, b[n].time_s);
      EXPECT_EQ(a[n].energy_mah, b[n].energy_mah);
    }
  }
  // Grouping collapses the batch to one cache transaction per distinct key.
  EXPECT_EQ(batched.stats().solver_runs, 3);
  EXPECT_EQ(batched.stats().requests, 9);
}

}  // namespace
}  // namespace evvo::cloud
