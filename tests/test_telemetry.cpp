// Telemetry layer: counter sharding, log-linear histogram bucket math, the
// percentile-vs-sorted-vector error bound, fake-clock trace spans, the
// registry, and the JSON exporter. The span tests drive time through
// ScopedFakeClock so recorded durations are exact, not sleep-and-hope.
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "log_capture.hpp"

namespace evvo {
namespace {

using telemetry::Histogram;
using telemetry::Unit;

TEST(TelemetryCounter, SumsExactlyAcrossRacingThreads) {
  telemetry::Counter ctr;
  constexpr int kThreads = 8;
  constexpr long kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctr] {
      for (long i = 0; i < kPerThread; ++i) ctr.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ctr.value(), kThreads * kPerThread);
  ctr.reset();
  EXPECT_EQ(ctr.value(), 0);
  ctr.add(-3);
  ctr.add(5);
  EXPECT_EQ(ctr.value(), 2);
}

TEST(TelemetryGauge, SetAddSub) {
  telemetry::Gauge g;
  g.set(10);
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 13);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(TelemetryHistogram, BucketMathRoundTrips) {
  // Unit buckets are exact below 16.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(Histogram::bucket_width(static_cast<int>(v)), 1u);
  }
  // Every bucket's lower bound maps back to that bucket, and lower bounds
  // are strictly increasing — the layout is a partition.
  for (int idx = 0; idx < Histogram::kBucketCount; ++idx) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(idx)), idx);
    if (idx > 0) {
      EXPECT_EQ(Histogram::bucket_lower(idx),
                Histogram::bucket_lower(idx - 1) + Histogram::bucket_width(idx - 1));
    }
  }
  // Arbitrary values land inside [lower, lower + width).
  for (std::uint64_t v : {17ull, 100ull, 1023ull, 1024ull, 1025ull, 999999ull,
                          123456789ull, 98765432101ull}) {
    const int idx = Histogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kBucketCount);
    EXPECT_LE(Histogram::bucket_lower(idx), v);
    EXPECT_LT(v, Histogram::bucket_lower(idx) + Histogram::bucket_width(idx));
    // Relative bucket width is 1/16 above the unit range.
    EXPECT_LE(static_cast<double>(Histogram::bucket_width(idx)),
              static_cast<double>(Histogram::bucket_lower(idx)) / 16.0 + 1.0);
  }
  // Values beyond the tracked range clamp into the last bucket.
  EXPECT_EQ(Histogram::bucket_index(~0ull), Histogram::kBucketCount - 1);
}

TEST(TelemetryHistogram, CountSumMaxAndReset) {
  Histogram h(Unit::kCount);
  EXPECT_EQ(h.unit(), Unit::kCount);
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty -> 0
  h.record(3);
  h.record(40);
  h.record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 50u);
  EXPECT_EQ(h.max(), 40u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(TelemetryHistogram, PercentileMatchesSortedVectorWithinOneBucket) {
  // Property: for any recorded multiset and any p, percentile(p) is the
  // lower bound of the bucket holding the sample a sorted vector would
  // return at idx = round(p * (n - 1)) — the identical rank convention
  // evvo_load migrated from. The true sample therefore lies within one
  // bucket width (<= 6.25% relative) above the histogram's answer.
  Histogram h;
  std::vector<std::uint64_t> sorted;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;  // deterministic; no global PRNG
  for (int i = 0; i < 5000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    // Spread samples over ~6 decades the way latencies spread.
    const std::uint64_t v = (lcg >> 33) % (std::uint64_t{1} << (10 + i % 21));
    h.record(v);
    sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto idx = static_cast<std::size_t>(
        std::llround(p * static_cast<double>(sorted.size() - 1)));
    const std::uint64_t exact = sorted[idx];
    const std::uint64_t est = h.percentile(p);
    EXPECT_EQ(est, Histogram::bucket_lower(Histogram::bucket_index(exact)))
        << "p=" << p << " exact=" << exact;
    EXPECT_LE(est, exact);
    EXPECT_LT(exact - est, Histogram::bucket_width(Histogram::bucket_index(est)))
        << "p=" << p;
  }
}

TEST(TelemetryRegistry, SameNameSameMetricAndUnitSticks) {
  EXPECT_EQ(&telemetry::counter("tst.reg.ctr"), &telemetry::counter("tst.reg.ctr"));
  EXPECT_EQ(&telemetry::gauge("tst.reg.g"), &telemetry::gauge("tst.reg.g"));
  Histogram& h = telemetry::histogram("tst.reg.h", Unit::kCount);
  // Re-lookup with a different (default) unit returns the original metric.
  EXPECT_EQ(&telemetry::histogram("tst.reg.h"), &h);
  EXPECT_EQ(h.unit(), Unit::kCount);
}

TEST(TelemetryRegistry, ResetAllZeroesButKeepsNames) {
  telemetry::counter("tst.reset.ctr").add(7);
  telemetry::histogram("tst.reset.h").record(42);
  telemetry::reset_all();
  EXPECT_EQ(telemetry::counter("tst.reset.ctr").value(), 0);
  EXPECT_EQ(telemetry::histogram("tst.reset.h").count(), 0u);
  const telemetry::Snapshot snap = telemetry::snapshot();
  const bool ctr_present =
      std::any_of(snap.counters.begin(), snap.counters.end(),
                  [](const auto& c) { return c.name == "tst.reset.ctr"; });
  EXPECT_TRUE(ctr_present);
}

TEST(TelemetryRegistry, ConcurrentRegistrationIsSafe) {
  std::vector<std::thread> threads;
  std::array<telemetry::Counter*, 8> seen{};
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&seen, t] {
      telemetry::Counter& c = telemetry::counter("tst.race.ctr");
      c.add();
      seen[t] = &c;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const telemetry::Counter* p : seen) EXPECT_EQ(p, seen[0]);
  EXPECT_EQ(seen[0]->value(), 8);
}

TEST(TelemetrySpan, FakeClockMakesDurationsExact) {
  Histogram& h = telemetry::histogram("tst.span.exact_ns");
  h.reset();
  common::ScopedFakeClock clock(1000);
  {
    const telemetry::TraceSpan span(h, "tst.exact");
    clock.advance_ns(12345);
  }
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 12345u);
    EXPECT_EQ(h.bucket_count(Histogram::bucket_index(12345)), 1u);
    EXPECT_EQ(h.percentile(1.0),
              Histogram::bucket_lower(Histogram::bucket_index(12345)));
  } else {
    EXPECT_EQ(h.count(), 0u);  // OFF builds: spans are no-ops
  }
}

TEST(TelemetryExport, JsonShape) {
  telemetry::Counter& c = telemetry::counter("tst.json.ctr");
  c.reset();
  c.add(42);
  telemetry::gauge("tst.json.g").set(-7);
  Histogram& h = telemetry::histogram("tst.json.h", Unit::kCount);
  h.reset();
  h.record(3);
  h.record(300);
  const std::string json = telemetry::to_json(telemetry::snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"tst.json.ctr\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"tst.json.g\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"tst.json.h\": {\"unit\": \"count\", \"count\": 2, \"sum\": 303"),
            std::string::npos);
  // Sparse buckets carry the full distribution: [idx, n] pairs.
  const std::string b3 = "[3, 1]";
  std::string b300 = "[";
  b300 += std::to_string(Histogram::bucket_index(300));
  b300 += ", 1]";
  EXPECT_NE(json.find(b3), std::string::npos);
  EXPECT_NE(json.find(b300), std::string::npos);
}

using TelemetryWithLogsTest = evvo::testing::LogCaptureTest;

TEST_F(TelemetryWithLogsTest, LoggingInsideSpansComposes) {
  // Logging is the highest lock rank, telemetry registration sits below it,
  // so emitting a log inside a span (the common "slow request" pattern) is
  // rank-legal and both subsystems observe the event.
  Histogram& h = telemetry::histogram("tst.log.span_ns");
  h.reset();
  common::ScopedFakeClock clock(0);
  {
    const telemetry::TraceSpan span(h, "tst.log");
    clock.advance_ns(99);
    EVVO_LOG(kWarn, "telemetry") << "slow request, " << 99 << " ns";
  }
  EXPECT_EQ(count_containing("slow request, 99 ns"), 1u);
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 99u);
  }
}

}  // namespace
}  // namespace evvo
