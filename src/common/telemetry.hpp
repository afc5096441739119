// Process-wide metrics registry: lock-free counters/gauges, log-linear
// latency histograms, and RAII trace spans, with JSON export.
//
// Design (DESIGN.md section 14 has the full treatment):
//
//   - Counters are sharded over a small fixed array of cache-line-padded
//     atomic cells; each thread hashes to a cell, so hot-path increments are
//     one relaxed fetch_add with no false sharing. value() sums the cells.
//   - Histograms use a fixed log-linear (HDR-style) bucket layout: values
//     0..15 get exact unit buckets, then 16 sub-buckets per power of two up
//     to 2^38 (~4.6 min in ns). The layout is a pure function of the value,
//     so percentiles are deterministic given the recorded multiset, and two
//     histograms merge (or diff) bucket-wise — evvo_stat relies on both.
//     Relative bucket width is 1/16 (6.25%), the error bound the
//     histogram-vs-sorted-vector property test asserts.
//   - TraceSpan is an RAII scope: constructed it stamps common::now_ns();
//     destructed it records the duration into its histogram. With
//     EVVO_TELEMETRY=OFF spans compile to empty objects — no clock reads
//     anywhere in the tree.
//   - The registry maps names to metrics under a common::Mutex at
//     LockRank::kTelemetryRegistry. Only registration and snapshot take the
//     lock; every update on a registered metric is atomic. Call sites cache
//     the returned reference (valid for the process lifetime), so steady
//     state never touches the registry map.
//
// What EVVO_TELEMETRY=OFF removes: every TraceSpan and Stopwatch (and with
// them every clock read). Counters, gauges, and the Histogram class
// itself stay live in OFF builds because they double as service statistics —
// cloud::PlanService's stats() identity is behavior, not optional telemetry —
// and their cost is a relaxed add. The expensive part of observability is
// timing, and that is what the switch deletes.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.hpp"

#if !defined(EVVO_TELEMETRY_ENABLED)
#define EVVO_TELEMETRY_ENABLED 1
#endif

namespace evvo::telemetry {

/// True when the build compiled the timing layer (EVVO_TELEMETRY=ON).
inline constexpr bool kEnabled = EVVO_TELEMETRY_ENABLED != 0;

/// What a histogram's values measure; drives exporter unit labels and the
/// bench_compare unit column ("ns" vs "count").
enum class Unit { kNanoseconds, kCount };

constexpr const char* unit_name(Unit unit) {
  return unit == Unit::kNanoseconds ? "ns" : "count";
}

namespace detail {

/// Stable small thread index for counter cell selection. Assigned once per
/// thread from a global ticket; reused threads (pools) keep their index.
std::size_t thread_cell(std::size_t n_cells);

}  // namespace detail

/// Monotone event counter. Thread-safe, lock-free; add() is a relaxed
/// fetch_add on this thread's cell. value() is a relaxed sum over the cells:
/// exact at quiescence, momentarily behind in-flight increments otherwise.
class Counter {
 public:
  static constexpr std::size_t kCells = 8;

  void add(long n = 1) noexcept {
    cells_[detail::thread_cell(kCells)].v.fetch_add(n, std::memory_order_relaxed);
  }
  long value() const noexcept {
    long total = 0;
    for (const Cell& cell : cells_) total += cell.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (Cell& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<long> v{0};
  };
  std::array<Cell, kCells> cells_{};
};

/// Instantaneous level (queue depths, pool sizes). A single atomic: set()
/// must be coherent, so gauges are not sharded; add()/sub() are relaxed.
class Gauge {
 public:
  void set(long v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(long n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(long n = 1) noexcept { value_.fetch_sub(n, std::memory_order_relaxed); }
  long value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0); }

 private:
  std::atomic<long> value_{0};
};

/// Log-linear fixed-layout histogram (see the header comment). record() is
/// three relaxed atomic adds plus bit math; readers (count/percentile) see a
/// relaxed snapshot — exact at quiescence.
class Histogram {
 public:
  static constexpr int kSubBits = 4;                      ///< 16 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBits;       ///< == 16, also the unit range
  static constexpr int kMaxMsb = 37;                      ///< top tracked power of two
  /// Unit buckets 0..15, then 16 per octave for msb 4..37; larger values
  /// clamp into the last bucket.
  static constexpr int kBucketCount = kSubBuckets + (kMaxMsb - kSubBits + 1) * kSubBuckets;

  explicit Histogram(Unit unit = Unit::kNanoseconds) : unit_(unit) {}

  Unit unit() const { return unit_; }

  /// Bucket holding `v`: exact for v < 16, otherwise the top kSubBits bits
  /// below the leading one select the sub-bucket within v's octave.
  static int bucket_index(std::uint64_t v) {
    if (v < static_cast<std::uint64_t>(kSubBuckets)) return static_cast<int>(v);
    if (v > kMaxValue) v = kMaxValue;
    const int msb = 63 - std::countl_zero(v);
    const int sub = static_cast<int>((v >> (msb - kSubBits)) & (kSubBuckets - 1));
    return ((msb - kSubBits + 1) << kSubBits) + sub;
  }

  /// Smallest value mapping into bucket `idx`.
  static std::uint64_t bucket_lower(int idx) {
    if (idx < kSubBuckets) return static_cast<std::uint64_t>(idx);
    const int octave = idx >> kSubBits;  // 1-based: msb == octave + kSubBits - 1
    const int sub = idx & (kSubBuckets - 1);
    return static_cast<std::uint64_t>(kSubBuckets + sub) << (octave - 1);
  }

  /// Width of bucket `idx` (the one-bucket error bound of percentile()).
  static std::uint64_t bucket_width(int idx) {
    return idx < kSubBuckets ? 1 : std::uint64_t{1} << ((idx >> kSubBits) - 1);
  }

  void record(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed,
                                                   std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(int idx) const noexcept {
    return buckets_[static_cast<std::size_t>(idx)].load(std::memory_order_relaxed);
  }

  /// Lower bound of the bucket holding the rank-ceil(p * count) sample,
  /// p in [0, 1]. The true sample lies within bucket_width() above the
  /// returned value. 0 when empty.
  std::uint64_t percentile(double p) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << (kMaxMsb + 1)) - 1;

  Unit unit_;
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// --- Registry -------------------------------------------------------------

/// Looks up (registering on first use) the named metric. References stay
/// valid for the process lifetime; call sites cache them so the registry
/// lock is a registration-time cost only. Names are dot-separated paths
/// ("plan_service.0.shard0.cache_hits"); exporters mangle as needed.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, Unit unit = Unit::kNanoseconds);

/// Zeroes every registered metric (names stay registered). Test fixtures and
/// harness warmup use this to scope measurements.
void reset_all();

// --- Snapshot & exporters -------------------------------------------------

struct [[nodiscard]] Snapshot {
  struct CounterValue {
    std::string name;
    long value = 0;
  };
  struct GaugeValue {
    std::string name;
    long value = 0;
  };
  struct HistogramValue {
    std::string name;
    Unit unit = Unit::kNanoseconds;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    /// Sparse nonzero (bucket index, count) pairs, index-ascending; the full
    /// distribution, so snapshots merge and diff exactly.
    std::vector<std::pair<int, std::uint64_t>> buckets;
  };

  std::vector<CounterValue> counters;      // name-sorted
  std::vector<GaugeValue> gauges;          // name-sorted
  std::vector<HistogramValue> histograms;  // name-sorted
};

/// Consistent-enough snapshot of every registered metric (each value is a
/// relaxed read; the set of names is taken under the registry lock).
Snapshot snapshot();

/// The snapshot as a single JSON object ({"counters": {...}, "gauges":
/// {...}, "histograms": {...}}). tools/evvo_stat pretty-prints and diffs
/// this format; evvo_load --telemetry-dump writes it.
std::string to_json(const Snapshot& snap);

// --- Trace spans ----------------------------------------------------------

#if EVVO_TELEMETRY_ENABLED

/// RAII scope: stamps the clock on entry and records the elapsed ns into
/// `hist` on exit. `name` labels the span at its call site; nothing stores
/// it yet.
class TraceSpan {
 public:
  TraceSpan(Histogram& hist, const char* /*name*/) noexcept
      : hist_(&hist), start_(common::now_ns()) {}
  ~TraceSpan() { hist_->record(common::now_ns() - start_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Histogram* hist_;
  std::uint64_t start_;
};

/// One start, many ends: stamps the clock on construction, and each
/// record() stores the ns elapsed since then into `hist`. For latencies that
/// share an origin but end at different points (every group a call serves,
/// timed from call entry).
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(common::now_ns()) {}
  void record(Histogram& hist) const { hist.record(common::now_ns() - start_); }

 private:
  std::uint64_t start_;
};

#else  // EVVO_TELEMETRY_ENABLED

/// No-op span: no clock read, no record, optimizes away entirely.
class TraceSpan {
 public:
  TraceSpan(Histogram&, const char*) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

/// No-op stopwatch: no clock read, no record.
class Stopwatch {
 public:
  void record(Histogram&) const {}
};

#endif  // EVVO_TELEMETRY_ENABLED

}  // namespace evvo::telemetry
