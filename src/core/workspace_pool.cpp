#include "core/workspace_pool.hpp"

#include <algorithm>

#include "common/telemetry.hpp"

namespace evvo::core {

namespace {

// Checkout outcomes: affinity hits skip the model-table rebuild, LIFO reuses
// keep allocations amortized, fresh allocations mean the pool is undersized.
telemetry::Counter& affinity_hits_ctr() {
  static telemetry::Counter& c = telemetry::counter("dp.pool.affinity_hits");
  return c;
}
telemetry::Counter& lifo_reuses_ctr() {
  static telemetry::Counter& c = telemetry::counter("dp.pool.lifo_reuses");
  return c;
}
telemetry::Counter& fresh_allocs_ctr() {
  static telemetry::Counter& c = telemetry::counter("dp.pool.fresh_allocs");
  return c;
}

}  // namespace

std::unique_ptr<WorkspacePool::Entry> WorkspacePool::acquire(std::uint64_t affinity) {
  {
    common::MutexLock lock(free_mutex_);
    if (!free_.empty()) {
      // Most recently released first, so ties go to the hottest caches.
      for (std::size_t i = free_.size(); i-- > 0;) {
        if (free_[i]->affinity == affinity) {
          std::unique_ptr<Entry> entry = std::move(free_[i]);
          free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
          affinity_hits_ctr().add(1);
          return entry;
        }
      }
      std::unique_ptr<Entry> entry = std::move(free_.back());
      free_.pop_back();
      lifo_reuses_ctr().add(1);
      return entry;
    }
  }
  fresh_allocs_ctr().add(1);
  return std::make_unique<Entry>();
}

std::vector<std::unique_ptr<WorkspacePool::Entry>> WorkspacePool::acquire_many(
    std::uint64_t affinity, std::size_t n) {
  std::vector<std::unique_ptr<Entry>> out;
  out.reserve(n);
  std::size_t affinity_hits = 0;
  std::size_t lifo_reuses = 0;
  {
    common::MutexLock lock(free_mutex_);
    for (std::size_t i = free_.size(); i-- > 0 && out.size() < n;) {
      if (free_[i]->affinity == affinity) {
        out.push_back(std::move(free_[i]));
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
        ++affinity_hits;
      }
    }
    while (out.size() < n && !free_.empty()) {
      out.push_back(std::move(free_.back()));
      free_.pop_back();
      ++lifo_reuses;
    }
  }
  if (affinity_hits != 0) affinity_hits_ctr().add(static_cast<long>(affinity_hits));
  if (lifo_reuses != 0) lifo_reuses_ctr().add(static_cast<long>(lifo_reuses));
  if (out.size() < n) fresh_allocs_ctr().add(static_cast<long>(n - out.size()));
  while (out.size() < n) out.push_back(std::make_unique<Entry>());
  return out;
}

void WorkspacePool::release(std::unique_ptr<Entry> entry) {
  common::MutexLock lock(free_mutex_);
  free_.push_back(std::move(entry));
}

std::size_t WorkspacePool::idle_count() const {
  common::MutexLock lock(free_mutex_);
  return free_.size();
}

}  // namespace evvo::core
