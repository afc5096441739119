// Vehicular-cloud planning service: hyperperiod math, cache correctness
// (phase-congruent departures share a time-shifted plan), LRU eviction, and
// thread safety under concurrent requests.
#include "cloud/plan_service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/telemetry.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"
#include "sim/microsim.hpp"

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

core::VelocityPlanner make_planner() {
  sim::MicrosimConfig sim_config;
  core::PlannerConfig cfg;
  cfg.policy = core::SignalPolicy::kQueueAware;
  cfg.vm = sim::calibrated_vm_params(sim_config.background_driver, 13.4,
                                     sim_config.straight_ratio);
  return core::VelocityPlanner(road::make_us25_corridor(), ev::EnergyModel{}, cfg);
}

TEST(Hyperperiod, LcmOfCycles) {
  EXPECT_DOUBLE_EQ(signal_hyperperiod({}), 0.0);
  EXPECT_DOUBLE_EQ(signal_hyperperiod({road::TrafficLight(100.0, 30.0, 30.0)}), 60.0);
  EXPECT_DOUBLE_EQ(signal_hyperperiod({road::TrafficLight(100.0, 30.0, 30.0),
                                       road::TrafficLight(200.0, 45.0, 45.0)}),
                   180.0);
  // Fractional cycles resolved at decisecond precision.
  EXPECT_DOUBLE_EQ(signal_hyperperiod({road::TrafficLight(100.0, 10.0, 10.5)}), 20.5);
}

TEST(PlanService, ValidatesConfig) {
  CacheConfig bad;
  bad.capacity = 0;
  EXPECT_THROW(PlanService(make_planner(), demand(765.0), bad), std::invalid_argument);
  EXPECT_THROW(PlanService(make_planner(), nullptr, CacheConfig{}), std::invalid_argument);
}

TEST(PlanService, FirstRequestSolvesSecondHitsCache) {
  PlanService service(make_planner(), demand(765.0));
  EXPECT_DOUBLE_EQ(service.hyperperiod(), 60.0);

  const PlanTicket a = plan_one(service, {1, 600.0});
  EXPECT_FALSE(a.cache_hit);
  // Same phase one hyperperiod later: a cache hit, time-shifted.
  const PlanTicket b = plan_one(service, {2, 660.0});
  EXPECT_TRUE(b.cache_hit);
  const core::PlannedProfile pa = a.materialize();
  const core::PlannedProfile pb = b.materialize();
  EXPECT_DOUBLE_EQ(pb.depart_time(), 660.0);
  EXPECT_NEAR(pb.trip_time(), pa.trip_time(), 1e-9);
  EXPECT_NEAR(pb.total_energy_mah(), pa.total_energy_mah(), 1e-9);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.solver_runs, 1);
}

TEST(PlanService, ShiftedPlanCrossesSignalsAtCongruentTimes) {
  PlanService service(make_planner(), demand(765.0));
  const PlanTicket a = plan_one(service, {1, 600.0});
  const PlanTicket b = plan_one(service, {2, 600.0 + 3.0 * 60.0});
  ASSERT_TRUE(b.cache_hit);
  const core::PlannedProfile pa = a.materialize();
  const core::PlannedProfile pb = b.materialize();
  const road::Corridor corridor = road::make_us25_corridor();
  for (const auto& light : corridor.lights) {
    const double ca = pa.time_at_position(light.position());
    const double cb = pb.time_at_position(light.position());
    EXPECT_NEAR(cb - ca, 180.0, 1e-6);
    EXPECT_EQ(light.is_green(ca), light.is_green(cb));
  }
}

TEST(PlanService, DifferentPhaseMisses) {
  PlanService service(make_planner(), demand(765.0));
  (void)plan_one(service, {1, 600.0});
  const PlanTicket other = plan_one(service, {2, 617.0});  // different phase bin
  EXPECT_FALSE(other.cache_hit);
}

TEST(PlanService, LruEvictionBounded) {
  CacheConfig cache;
  cache.capacity = 2;
  PlanService service(make_planner(), demand(765.0), cache);
  (void)plan_one(service, {1, 600.0});
  (void)plan_one(service, {2, 610.0});
  (void)plan_one(service, {3, 620.0});  // evicts the 600.0 entry
  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.evictions, 1);
  const PlanTicket again = plan_one(service, {4, 600.0});
  EXPECT_FALSE(again.cache_hit);  // was evicted
  // 610.0 was refreshed least recently but within capacity bounds overall.
  EXPECT_LE(service.stats().solver_runs, 5);
}

TEST(PlanService, ReplanMissesThenServesPhaseCongruentStates) {
  PlanService service(make_planner(), demand(765.0));

  // Mid-route state on the 10 m grid: layer 200, velocity level 30.
  const PlanTicket a = replan_one(service, {1, 2000.0, 15.0, 600.0});
  EXPECT_FALSE(a.cache_hit);
  const core::PlannedProfile pa = a.materialize();
  EXPECT_DOUBLE_EQ(pa.nodes().front().position_m, 2000.0);
  EXPECT_DOUBLE_EQ(pa.nodes().front().speed_ms, 15.0);
  EXPECT_DOUBLE_EQ(pa.depart_time(), 600.0);

  // Same quantized state one hyperperiod later: served from the segment
  // memo, time-shifted to the new request time.
  const PlanTicket b = replan_one(service, {2, 2000.0, 15.0, 660.0});
  EXPECT_TRUE(b.cache_hit);
  const core::PlannedProfile pb = b.materialize();
  EXPECT_DOUBLE_EQ(pb.depart_time(), 660.0);
  EXPECT_NEAR(pb.trip_time(), pa.trip_time(), 1e-9);
  EXPECT_NEAR(pb.total_energy_mah(), pa.total_energy_mah(), 1e-9);

  // Off-grid states snap into the same bin and hit too.
  const PlanTicket c = replan_one(service, {3, 2003.0, 15.2, 720.0});
  EXPECT_TRUE(c.cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.replans, 3);
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.solver_runs, 1);
}

TEST(PlanService, ReplanKeysNeverCollideWithFullTripPlans) {
  PlanService service(make_planner(), demand(765.0));
  const PlanTicket trip = plan_one(service, {1, 600.0});
  // A replan from the departure state at the same phase is a different kind
  // of request (full-trip keys use layer = -1) and must solve on its own.
  const PlanTicket replan = replan_one(service, {2, 0.0, 0.0, 600.0});
  EXPECT_FALSE(trip.cache_hit);
  EXPECT_FALSE(replan.cache_hit);
  EXPECT_EQ(service.stats().solver_runs, 2);
  EXPECT_EQ(service.stats().replans, 1);
}

TEST(PlanService, ReplanValidatesPosition) {
  PlanService service(make_planner(), demand(765.0));
  EXPECT_THROW((void)replan_one(service, {1, -1.0, 10.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)replan_one(service, {1, 4200.0, 10.0, 0.0}), std::invalid_argument);
}

TEST(PlanService, NonFiniteRequestFieldsAreRejectedUncounted) {
  // A NaN position used to pass the range check and become layer 0, and a
  // NaN time reached the arrival-rate provider. Every non-finite field is an
  // invalid_argument before any lookup, alone or in a span (a span with one
  // bad request is rejected whole), and nothing is counted.
  PlanService service(make_planner(), demand(765.0));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    const PlanRequest plan{1, bad};
    const std::vector<PlanRequest> plans{{2, 600.0}, plan};
    EXPECT_THROW((void)plan_one(service, plan), std::invalid_argument) << bad;
    EXPECT_THROW((void)service.request_plan_tickets(plans), std::invalid_argument) << bad;
    for (double ReplanRequest::*field :
         {&ReplanRequest::position_m, &ReplanRequest::speed_ms, &ReplanRequest::time_s}) {
      ReplanRequest replan{3, 2000.0, 15.0, 600.0};
      replan.*field = bad;
      const std::vector<ReplanRequest> replans{{4, 1000.0, 10.0, 600.0}, replan};
      EXPECT_THROW((void)replan_one(service, replan), std::invalid_argument) << bad;
      EXPECT_THROW((void)service.request_replan_tickets(replans), std::invalid_argument) << bad;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.replans, 0);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.solver_runs, 0);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.solver_runs);
}

TEST(PlanService, OffGridReplanSpeedsAreRejectedUncounted) {
  // A negative speed used to bin to velocity level 0 and a speed above the
  // grid to a level past it, both then clamped inside the solve. Each is an
  // invalid_argument before any lookup, alone or in a span, and nothing is
  // counted. The top grid speed itself and a
  // speed just under half a step above it still bin onto the grid.
  const core::VelocityPlanner planner = make_planner();
  const double dv = planner.config().resolution.dv_ms;
  const double top = std::floor(planner.corridor().route.max_speed_limit() / dv) * dv;
  PlanService service(make_planner(), demand(765.0));
  for (const double bad : {-0.1, -dv, top + 0.5 * dv, top + dv, 1e308}) {
    const ReplanRequest replan{3, 2000.0, bad, 600.0};
    const std::vector<ReplanRequest> replans{{4, 1000.0, 10.0, 600.0}, replan};
    EXPECT_THROW((void)replan_one(service, replan), std::invalid_argument) << bad;
    EXPECT_THROW((void)service.request_replan_tickets(replans), std::invalid_argument) << bad;
    EXPECT_THROW((void)service.slot_for_replan(Meters(2000.0), MetersPerSecond(bad),
                                               Seconds(600.0)),
                 std::invalid_argument)
        << bad;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.replans, 0);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.coalesced_hits, 0);
  EXPECT_EQ(stats.solver_runs, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.queue_depth, 0);

  for (const double ok : {0.0, top, top + 0.49 * dv}) {
    EXPECT_NO_THROW((void)service.slot_for_replan(Meters(2000.0), MetersPerSecond(ok),
                                                  Seconds(600.0)))
        << ok;
  }
  EXPECT_FALSE(replan_one(service, {5, 2000.0, top + 0.49 * dv, 600.0}).cache_hit);
  EXPECT_EQ(service.stats().solver_runs, 1);
}

/// A provider that answers every query with one fixed (possibly bad) rate.
class FixedRate final : public traffic::ArrivalRateProvider {
 public:
  explicit FixedRate(double veh_h) : veh_h_(veh_h) {}
  double arrival_rate_veh_h(Seconds) const override { return veh_h_; }

 private:
  double veh_h_;
};

TEST(PlanService, BadProviderRatesAreRejectedUncounted) {
  // A NaN rate used to reach std::lround (an unspecified demand bin), and a
  // negative one was counted as a request before QueueModel threw inside the
  // solve. Both, and +inf, are an invalid_argument before any lookup, alone
  // or in a span, and nothing is counted.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    PlanService service(make_planner(), std::make_shared<FixedRate>(bad));
    const PlanRequest plan{1, 600.0};
    const std::vector<PlanRequest> plans{plan, {2, 660.0}};
    const ReplanRequest replan{3, 2000.0, 15.0, 600.0};
    const std::vector<ReplanRequest> replans{replan, {4, 1000.0, 10.0, 600.0}};
    EXPECT_THROW((void)plan_one(service, plan), std::invalid_argument) << bad;
    EXPECT_THROW((void)service.request_plan_tickets(plans), std::invalid_argument) << bad;
    EXPECT_THROW((void)replan_one(service, replan), std::invalid_argument) << bad;
    EXPECT_THROW((void)service.request_replan_tickets(replans), std::invalid_argument) << bad;

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 0) << bad;
    EXPECT_EQ(stats.replans, 0) << bad;
    EXPECT_EQ(stats.cache_hits, 0) << bad;
    EXPECT_EQ(stats.coalesced_hits, 0) << bad;
    EXPECT_EQ(stats.solver_runs, 0) << bad;
    EXPECT_EQ(stats.evictions, 0) << bad;
    EXPECT_EQ(stats.queue_depth, 0) << bad;
  }
}

TEST(PlanService, BatchReplansCoalesceOntoOneSolve) {
  PlanService service(make_planner(), demand(765.0));
  std::vector<ReplanRequest> fleet;
  for (int i = 0; i < 6; ++i) {
    // Same quantized state, phase-congruent request times.
    fleet.push_back({i, 2000.0, 15.0, 600.0 + 60.0 * i});
  }
  const std::vector<PlanTicket> tickets = service.request_replan_tickets(fleet);
  ASSERT_EQ(tickets.size(), fleet.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].vehicle_id, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(tickets[i].materialize().depart_time(), fleet[i].time_s);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.replans, 6);
  EXPECT_EQ(stats.solver_runs, 1);
  EXPECT_EQ(stats.cache_hits, 5);
}

/// ticket_ns samples recorded so far by every service in the process.
std::uint64_t ticket_samples() {
  std::uint64_t total = 0;
  for (const auto& h : telemetry::snapshot().histograms) {
    if (h.name.starts_with("plan_service.") && h.name.ends_with(".ticket_ns")) total += h.count;
  }
  return total;
}

TEST(PlanService, TicketLatencyRecordsOneSamplePerGroup) {
  // ticket_ns times each served group from call entry until its lead ticket
  // exists: one sample per group, whether the group hit, led a solve or
  // waited on another call's solve. With telemetry off no clock is read and
  // nothing is recorded.
  const std::uint64_t per_group = telemetry::kEnabled ? 1 : 0;
  PlanService service(make_planner(), demand(765.0));
  const auto samples_during = [](auto&& call) {
    const std::uint64_t before = ticket_samples();
    call();
    return ticket_samples() - before;
  };

  // Two leaders (phase bins 0 and 17), plus a member of the first group.
  const std::vector<PlanRequest> cold{{1, 600.0}, {2, 617.0}, {3, 660.0}};
  EXPECT_EQ(samples_during([&] { (void)service.request_plan_tickets(cold); }), 2 * per_group);
  // A lone leader.
  EXPECT_EQ(samples_during([&] { (void)plan_one(service, {4, 630.0}); }), per_group);
  // Only hits: three requests over two cached bins.
  const std::vector<PlanRequest> warm{{5, 720.0}, {6, 737.0}, {7, 780.0}};
  EXPECT_EQ(samples_during([&] { (void)service.request_plan_tickets(warm); }), 2 * per_group);

  // A follower: a second call joins the solve the first call is running.
  // Each call serves one group, so the two calls record two samples.
  const long coalesced_before = service.stats().coalesced_hits;
  EXPECT_EQ(samples_during([&] {
              std::thread leader([&] { (void)plan_one(service, {8, 645.0}); });
              while (service.stats().queue_depth < 1) std::this_thread::yield();
              EXPECT_TRUE(plan_one(service, {9, 705.0}).cache_hit);
              leader.join();
            }),
            2 * per_group);
  EXPECT_EQ(service.stats().coalesced_hits, coalesced_before + 1);  // waited, not a hit
  EXPECT_EQ(service.stats().solver_runs, 4);
}

TEST(PlanService, ConcurrentRequestsAreConsistent) {
  PlanService service(make_planner(), demand(765.0));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::vector<std::thread> workers;
  std::vector<double> energies(kThreads * kPerThread, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &energies, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // All phase-congruent: one solve should serve (almost) everyone.
        const double depart = 600.0 + 60.0 * (t * kPerThread + i);
        const PlanTicket r = plan_one(service, {t * 100 + i, depart});
        energies[static_cast<std::size_t>(t * kPerThread + i)] =
            r.materialize().total_energy_mah();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Cold-key races may produce a handful of independent solves at different
  // absolute departure times; those are equally *optimal* plans, but float
  // time binning can break cost ties differently, so physical energies agree
  // only to ~1 %, not bitwise.
  for (const double e : energies) EXPECT_NEAR(e, energies.front(), energies.front() * 0.012);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  // At most one duplicate solve per thread racing on the cold key.
  EXPECT_LE(stats.solver_runs, kThreads);
  EXPECT_GE(stats.cache_hits, kThreads * kPerThread - kThreads);
}

}  // namespace
}  // namespace evvo::cloud
