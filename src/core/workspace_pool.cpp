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

void WorkspacePool::release(std::unique_ptr<Entry> entry) {
  common::MutexLock lock(free_mutex_);
  free_.push_back(std::move(entry));
}

std::size_t WorkspacePool::idle_count() const {
  common::MutexLock lock(free_mutex_);
  return free_.size();
}

}  // namespace evvo::core
