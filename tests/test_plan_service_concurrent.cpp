// Single-flight PlanService under contention: same-key misses coalesce onto
// one solver run, distinct-key misses proceed in parallel, profiles are
// never torn, and the stats identity requests == cache_hits + solver_runs
// holds exactly on every read, including reads that race the serving
// threads (requests is derived per snapshot). Run under TSan in CI.
#include "cloud/plan_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ev/energy_model.hpp"
#include "road/corridor.hpp"

namespace evvo::cloud {
namespace {

std::shared_ptr<traffic::ConstantArrivalRate> demand(double veh_h) {
  return std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(veh_h));
}

/// A single request is a span of one.
PlanTicket plan_one(PlanService& service, const PlanRequest& request) {
  return std::move(service.request_plan_tickets({&request, 1}).front());
}

PlanTicket replan_one(PlanService& service, const ReplanRequest& request) {
  return std::move(service.request_replan_tickets({&request, 1}).front());
}

/// A small corridor so each solve is fast enough to hammer from many
/// threads; one light gives a 60 s hyperperiod, so distinct phase bins are
/// easy to construct.
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

/// A profile must be internally consistent (monotone time, contiguous
/// positions, final node at the destination) - a torn read would violate it.
void expect_well_formed(const core::PlannedProfile& profile, double expected_depart) {
  const auto& nodes = profile.nodes();
  ASSERT_FALSE(nodes.empty());
  EXPECT_DOUBLE_EQ(nodes.front().time_s, expected_depart);
  EXPECT_DOUBLE_EQ(nodes.front().position_m, 0.0);
  EXPECT_NEAR(nodes.back().position_m, 600.0, 1e-6);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_GE(nodes[i].time_s, nodes[i - 1].time_s);
    EXPECT_GE(nodes[i].position_m, nodes[i - 1].position_m);
  }
}

TEST(PlanServiceConcurrent, SameKeyMissesCoalesceOntoOneSolve) {
  PlanService service(make_planner(), demand(500.0));
  constexpr int kThreads = 8;
  // All congruent mod the 60 s hyperperiod: one cache key.
  std::vector<std::thread> threads;
  std::vector<std::optional<PlanTicket>> tickets(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { tickets[t] = plan_one(service, {t, 30.0 + 60.0 * t}); });
  }
  for (auto& thread : threads) thread.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.solver_runs, 1);  // single-flight: exactly one leader
  EXPECT_EQ(stats.cache_hits, kThreads - 1);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(tickets[t].has_value());
    expect_well_formed(tickets[t]->materialize(), 30.0 + 60.0 * t);
  }
}

TEST(PlanServiceConcurrent, StatsIdentityUnderMixedContention) {
  PlanService service(make_planner(), demand(500.0));
  constexpr int kThreads = 6;
  constexpr int kRequestsPerThread = 8;
  constexpr int kDistinctKeys = 4;  // phases 5, 15, 25, 35 within one cycle

  std::atomic<int> next_id{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const int id = next_id.fetch_add(1);
        const double phase = 5.0 + 10.0 * (id % kDistinctKeys);
        const PlanTicket ticket = plan_one(service, {id, phase + 60.0 * (id / kDistinctKeys)});
        expect_well_formed(ticket.materialize(), phase + 60.0 * (id / kDistinctKeys));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
  // Single-flight bounds the solves by the number of distinct keys.
  EXPECT_EQ(stats.solver_runs, kDistinctKeys);
  EXPECT_GE(stats.cache_hits, stats.coalesced_hits);
}

TEST(PlanServiceConcurrent, BatchApiCoalescesAndPreservesOrder) {
  PlanService service(make_planner(), demand(500.0));

  std::vector<PlanRequest> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back({100 + i, 5.0 + 10.0 * (i % 3) + 60.0 * (i / 3)});
  }
  const std::vector<PlanTicket> tickets = service.request_plan_tickets(requests);
  ASSERT_EQ(tickets.size(), requests.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].vehicle_id, requests[i].vehicle_id);
    expect_well_formed(tickets[i].materialize(), requests[i].depart_time_s);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<long>(requests.size()));
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
  EXPECT_EQ(stats.solver_runs, 3);  // three distinct phase bins in the batch

  // A second identical batch is pure cache hits.
  const auto again = service.request_plan_tickets(requests);
  ASSERT_EQ(again.size(), requests.size());
  const ServiceStats stats2 = service.stats();
  EXPECT_EQ(stats2.solver_runs, 3);
  EXPECT_EQ(stats2.requests, stats2.cache_hits + stats2.solver_runs);
}

TEST(PlanServiceConcurrent, HitsServeWhileSolveInFlight) {
  // Prime one key, then hammer it while a different key's solve is running;
  // hits must complete without waiting for the in-flight solve.
  PlanService service(make_planner(), demand(500.0));
  (void)plan_one(service, {0, 5.0});  // prime key A

  std::thread slow([&] { (void)plan_one(service, {1, 40.0}); });  // key B (miss)
  for (int i = 0; i < 16; ++i) {
    const PlanTicket hit = plan_one(service, {2 + i, 5.0 + 60.0 * (i + 1)});
    EXPECT_TRUE(hit.cache_hit);
  }
  slow.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 18);
  EXPECT_EQ(stats.solver_runs, 2);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
}

TEST(PlanServiceConcurrent, MixedStormAcrossShardsNoDuplicateSolvesPerKey) {
  // A hot-key-skewed storm of plans and replans over 8 shards, with a
  // concurrent stats() reader (the per-shard counters are relaxed atomics -
  // TSan must see no race between serving threads and the reader). With no
  // eviction, global single-flight means every distinct key solves exactly
  // once no matter how many threads race it across shards.
  CacheConfig cache;
  cache.shards = 8;
  PlanService service(make_planner(), demand(500.0), cache);

  // The key universe: 3 plan phase bins and 4 quantized replan states. The
  // modulus skews ~2/3 of all traffic onto the first plan key (hot key).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const ServiceStats snapshot = service.stats();
      // `requests` is derived from the outcome counters inside each shard
      // snapshot, so the accounting identity is exact on every concurrent
      // read — not just at quiescence. A separately-incremented requests
      // counter would race ahead of the outcome counters and fail here.
      EXPECT_EQ(snapshot.requests, snapshot.cache_hits + snapshot.solver_runs);
      for (const ServiceStats& shard : service.shard_stats()) {
        EXPECT_EQ(shard.requests, shard.cache_hits + shard.solver_runs);
      }
    }
  });
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int pick = (t * 7 + i) % 12;
        const double cycle = 60.0 * (t * kPerThread + i);
        try {
          if (pick < 8) {  // hot plan key
            (void)plan_one(service, {t, 5.0 + cycle});
          } else if (pick < 10) {
            (void)plan_one(service, {t, 5.0 + 10.0 * (pick - 7) + cycle});
          } else {
            (void)replan_one(service,
                             {t, 200.0 * (pick - 9), 10.0 + 2.0 * (pick - 10), 30.0 + cycle});
          }
        } catch (...) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.solver_runs, 5);  // 3 plan bins + 2 replan states, once each
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_GE(stats.cache_hits, stats.coalesced_hits);

  // Per-shard identity holds too, and the storm exercised several shards.
  int populated = 0;
  for (const ServiceStats& s : service.shard_stats()) {
    EXPECT_EQ(s.requests, s.cache_hits + s.solver_runs);
    if (s.requests > 0) ++populated;
  }
  EXPECT_GE(populated, 2);
}

TEST(PlanServiceConcurrent, TicketBatchMissStormSolvesBatchedPerCaller) {
  // Four threads fire one ticket-batch each into a cold 8-shard service:
  // three plan batches (six distinct phase bins apiece, one in-batch repeat)
  // and one replan batch (six distinct quantized states). Every batch is all
  // misses, so each caller drives serve_batch's grouped admission and its
  // loop of pooled single solves concurrently with the others - the pooled
  // workspaces, batch telemetry histograms, and shard counters all see
  // cross-thread traffic under TSan. Single-flight still bounds the solves
  // to one per distinct key, and the in-batch repeat must coalesce onto its
  // group leader, never a second solve.
  CacheConfig cache;
  cache.shards = 8;
  PlanService service(make_planner(), demand(500.0), cache);

  constexpr int kPlanThreads = 3;
  constexpr int kPhasesPerThread = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kPlanThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<PlanRequest> batch;
      for (int j = 0; j < kPhasesPerThread; ++j) {
        batch.push_back({t * 100 + j, 0.5 + 2.0 * (t * kPhasesPerThread + j)});
      }
      // Same phase bin as the batch's first entry, one hyperperiod later:
      // a same-key group of two inside one tick.
      batch.push_back({t * 100 + 99, batch.front().depart_time_s + 60.0});
      const std::vector<PlanTicket> tickets = service.request_plan_tickets(batch);
      if (tickets.size() != batch.size()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        if (tickets[i].vehicle_id != batch[i].vehicle_id || !tickets[i].reference) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const core::PlannedProfile profile = tickets[i].materialize();
        if (profile.nodes().empty() ||
            profile.nodes().front().time_s != batch[i].depart_time_s) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    std::vector<ReplanRequest> batch;
    for (int j = 0; j < kPhasesPerThread; ++j) {
      batch.push_back({400 + j, 100.0 + 50.0 * j, 8.0, 30.0 + 1.0 * j});
    }
    const std::vector<PlanTicket> tickets = service.request_replan_tickets(batch);
    if (tickets.size() != batch.size()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (const PlanTicket& ticket : tickets) {
      if (!ticket.reference) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const core::PlannedProfile profile = ticket.materialize();
      const auto& nodes = profile.nodes();
      if (nodes.empty() || std::abs(nodes.back().position_m - 600.0) > 1e-6) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.stats();
  constexpr long kDistinctKeys = (kPlanThreads + 1) * kPhasesPerThread;
  EXPECT_EQ(stats.requests, kPlanThreads * (kPhasesPerThread + 1) + kPhasesPerThread);
  EXPECT_EQ(stats.solver_runs, kDistinctKeys);
  EXPECT_EQ(stats.cache_hits, kPlanThreads);  // the in-batch repeats, coalesced
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_GE(service.batch_group_sizes().count(), static_cast<std::uint64_t>(kDistinctKeys));
}

/// Same hit flag and bit-equal materialized nodes.
void expect_identical(const PlanTicket& a, const PlanTicket& b) {
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  const core::PlannedProfile pa = a.materialize();
  const core::PlannedProfile pb = b.materialize();
  ASSERT_EQ(pa.nodes().size(), pb.nodes().size());
  for (std::size_t n = 0; n < pa.nodes().size(); ++n) {
    EXPECT_EQ(pa.nodes()[n].position_m, pb.nodes()[n].position_m);
    EXPECT_EQ(pa.nodes()[n].speed_ms, pb.nodes()[n].speed_ms);
    EXPECT_EQ(pa.nodes()[n].time_s, pb.nodes()[n].time_s);
    EXPECT_EQ(pa.nodes()[n].energy_mah, pb.nodes()[n].energy_mah);
  }
}

TEST(PlanServiceConcurrent, OneVsEightShardsAreByteIdentical) {
  // Sharding is a pure partitioning of the cache: replaying one schedule on
  // a single-mutex service and an 8-shard service must produce bit-equal
  // profiles and identical aggregate statistics.
  CacheConfig one;
  one.shards = 1;
  CacheConfig eight;
  eight.shards = 8;
  PlanService service1(make_planner(), demand(500.0), one);
  PlanService service8(make_planner(), demand(500.0), eight);

  for (int i = 0; i < 30; ++i) {
    const double cycle = 60.0 * (i / 5);
    if (i % 3 == 0) {
      const ReplanRequest request{i, 150.0 + 50.0 * (i % 5), 8.0 + (i % 4), 30.0 + cycle};
      expect_identical(replan_one(service1, request), replan_one(service8, request));
    } else {
      const PlanRequest request{i, 5.0 + 10.0 * (i % 5) + cycle};
      expect_identical(plan_one(service1, request), plan_one(service8, request));
    }
  }

  const ServiceStats s1 = service1.stats();
  const ServiceStats s8 = service8.stats();
  EXPECT_EQ(s1.requests, s8.requests);
  EXPECT_EQ(s1.replans, s8.replans);
  EXPECT_EQ(s1.cache_hits, s8.cache_hits);
  EXPECT_EQ(s1.solver_runs, s8.solver_runs);
  EXPECT_EQ(s1.evictions, 0);
  EXPECT_EQ(s8.evictions, 0);
}

}  // namespace
}  // namespace evvo::cloud
