// Self-tests of the benchmark's own machinery: the output check must see a
// corrupted plan, and the open-loop clock must charge a stall to every
// request queued behind it.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "adapter.hpp"
#include "check.hpp"
#include "driver.hpp"
#include "scenario.hpp"

namespace evvo::fleetbench {
namespace {

/// A small warmed service: every hot slot served once through the adapter.
struct Warmed {
  Scenario scenario;
  RunResult warm;
};

Warmed warmed_service() {
  ThreadBudget budget;
  budget.clients = 2;
  Warmed w{make_scenario(budget), {}};
  std::vector<TimedRequest> stream;
  const HotSlots hot = hot_slots();
  for (std::size_t i = 0; i < 3; ++i) {
    stream.push_back(TimedRequest{0.0, hot.plans[i]});
    stream.push_back(TimedRequest{0.0, hot.replans[i]});
  }
  // The same slots one epoch later: cache hits on the references above.
  for (std::size_t i = 0; i < 3; ++i) {
    Request later = hot.plans[i];
    later.time_s += 60.0;
    stream.push_back(TimedRequest{0.5, later});
  }
  DriveOptions options;
  options.clients = budget.clients;
  w.warm = run_open_loop(stream, bind_service(*w.scenario.service), options);
  return w;
}

TEST(OutputCheck, PassesServedPlansAndCatchesATamperedOne) {
  const Warmed w = warmed_service();
  CheckOptions options;
  options.sample = 6;
  options.threads = 2;
  const CheckResult clean = check_outputs(w.scenario, w.warm.records, options);
  EXPECT_TRUE(clean.ok()) << (clean.errors.empty() ? "" : clean.errors.front());
  EXPECT_EQ(clean.references, 6u);
  EXPECT_GE(clean.checked, 9u);  // 6 leaders + the 3 hits of the sampled plans

  options.tamper = true;
  const CheckResult tampered = check_outputs(w.scenario, w.warm.records, options);
  EXPECT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.mismatches, 1u);
}

TEST(OutputCheck, HitWithoutLeaderFails) {
  const Warmed w = warmed_service();
  std::vector<RequestRecord> hits_only;
  for (const RequestRecord& rec : w.warm.records) {
    if (rec.ticket.cache_hit) hits_only.push_back(rec);
  }
  ASSERT_FALSE(hits_only.empty());
  EXPECT_FALSE(check_outputs(w.scenario, hits_only, CheckOptions{}).ok());
}

TEST(StatsCheck, RequestsMustMatchWhatWasSent) {
  cloud::ServiceStats stats;
  stats.cache_hits = 7;
  stats.solver_runs = 3;
  stats.requests = 10;
  EXPECT_TRUE(check_stats(stats, 10).empty());
  EXPECT_FALSE(check_stats(stats, 11).empty());
  stats.requests = 11;
  EXPECT_FALSE(check_stats(stats, 11).empty());
}

constexpr int kStallAt = 50;
constexpr int kStallMs = 200;

TEST(OpenLoopClock, StallIsChargedToEveryRequestQueuedBehindIt) {
  const ServeFn stub = [](std::span<const Request> batch) {
    for (const Request& r : batch) {
      if (r.vehicle == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
    }
    return std::vector<Outcome>(batch.size(), Outcome{{}, true});
  };
  std::vector<TimedRequest> stream;
  for (int i = 0; i < 400; ++i) {
    stream.push_back(TimedRequest{0.001 * i, Request{false, i, 0.0, 0.0, 0.0}});
  }
  DriveOptions options;
  options.clients = 1;
  options.max_batch = 4;
  const RunResult run = run_open_loop(stream, stub, options);
  ASSERT_EQ(run.records.size(), stream.size());

  const auto ms = [&](int i) { return static_cast<double>(run.records[i].latency_ns) * 1e-6; };
  // Before the stall the stub answers at once.
  for (int i = 0; i < kStallAt - 4; ++i) EXPECT_LT(ms(i), 50.0) << "request " << i;
  // A request due d ms after the stalled one waited for the rest of the
  // stall: latency from its due time is at least 200 - d ms.
  for (int i = kStallAt + 4; i < kStallAt + 150; ++i) {
    const double due_after = i - kStallAt;
    EXPECT_GE(ms(i), 200.0 - due_after - 5.0) << "request " << i;
  }
  EXPECT_GE(run.backlog_max, 100u);
}

}  // namespace
}  // namespace evvo::fleetbench
