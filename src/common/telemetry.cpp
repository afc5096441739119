#include "common/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace evvo::telemetry {

namespace detail {

std::size_t thread_cell(std::size_t n_cells) {
  static std::atomic<unsigned> next_ticket{0};
  // Ticket assignment only picks a cell; no memory is ordered by it.
  // evvo-lint: allow(atomics-misuse)
  thread_local const unsigned ticket = next_ticket.fetch_add(1, std::memory_order_relaxed);
  return ticket % n_cells;
}

}  // namespace detail

std::uint64_t Histogram::percentile(double p) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  p = std::min(std::max(p, 0.0), 1.0);
  // Rank of the percentile sample, 1-based, matching the sorted-vector
  // convention idx = round(p * (n - 1)): rank = idx + 1.
  const auto rank = static_cast<std::uint64_t>(
                        std::llround(p * static_cast<double>(total - 1))) +
                    1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += bucket_count(i);
    if (seen >= rank) return bucket_lower(i);
  }
  // Concurrent recording moved count() past the bucket sum; the last
  // nonempty bucket is the best answer available.
  for (int i = kBucketCount; i-- > 0;) {
    if (bucket_count(i) != 0) return bucket_lower(i);
  }
  return 0;
}

// --- Registry -------------------------------------------------------------

namespace {

/// Name-keyed metric maps. Metrics are never erased (references handed out
/// are process-lifetime), only reset. The mutex guards the maps, not the
/// metrics: updates on registered metrics are atomic and lock-free.
class Registry {
 public:
  static Registry& instance() {
    static Registry* registry = new Registry();  // never destroyed: metrics outlive main
    return *registry;
  }

  Counter& counter(std::string_view name) EVVO_EXCLUDES(registry_mutex_) {
    common::MutexLock lock(registry_mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
    }
    return *it->second;
  }

  Gauge& gauge(std::string_view name) EVVO_EXCLUDES(registry_mutex_) {
    common::MutexLock lock(registry_mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    }
    return *it->second;
  }

  Histogram& histogram(std::string_view name, Unit unit) EVVO_EXCLUDES(registry_mutex_) {
    common::MutexLock lock(registry_mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(unit)).first;
    }
    return *it->second;
  }

  void reset_all() EVVO_EXCLUDES(registry_mutex_) {
    common::MutexLock lock(registry_mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
  }

  Snapshot snapshot() EVVO_EXCLUDES(registry_mutex_) {
    Snapshot snap;
    common::MutexLock lock(registry_mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.push_back({name, c->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.push_back({name, g->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      Snapshot::HistogramValue hv;
      hv.name = name;
      hv.unit = h->unit();
      hv.count = h->count();
      hv.sum = h->sum();
      hv.max = h->max();
      hv.p50 = h->percentile(0.50);
      hv.p90 = h->percentile(0.90);
      hv.p99 = h->percentile(0.99);
      for (int i = 0; i < Histogram::kBucketCount; ++i) {
        const std::uint64_t n = h->bucket_count(i);
        if (n != 0) hv.buckets.emplace_back(i, n);
      }
      snap.histograms.push_back(std::move(hv));
    }
    return snap;  // std::map iteration is name-sorted already
  }

 private:
  Registry() = default;

  common::Mutex registry_mutex_{common::LockRank::kTelemetryRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      EVVO_GUARDED_BY(registry_mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      EVVO_GUARDED_BY(registry_mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      EVVO_GUARDED_BY(registry_mutex_);
};

}  // namespace

Counter& counter(std::string_view name) { return Registry::instance().counter(name); }
Gauge& gauge(std::string_view name) { return Registry::instance().gauge(name); }
Histogram& histogram(std::string_view name, Unit unit) {
  return Registry::instance().histogram(name, unit);
}
void reset_all() { Registry::instance().reset_all(); }
Snapshot snapshot() { return Registry::instance().snapshot(); }

// --- Exporters ------------------------------------------------------------

std::string to_json(const Snapshot& snap) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << snap.counters[i].name
        << "\": " << snap.counters[i].value;
  }
  out << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << snap.gauges[i].name
        << "\": " << snap.gauges[i].value;
  }
  out << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out << (i ? ",\n    " : "\n    ") << '"' << h.name << "\": {\"unit\": \""
        << unit_name(h.unit) << "\", \"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"max\": " << h.max << ", \"p50\": " << h.p50 << ", \"p90\": " << h.p90
        << ", \"p99\": " << h.p99 << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      out << (b ? ", " : "") << '[' << h.buckets[b].first << ", " << h.buckets[b].second
          << ']';
    }
    out << "]}";
  }
  out << (snap.histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

}  // namespace evvo::telemetry
