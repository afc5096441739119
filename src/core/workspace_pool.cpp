#include "core/workspace_pool.hpp"

#include "common/telemetry.hpp"

namespace evvo::core {

std::unique_ptr<DpWorkspace> WorkspacePool::acquire() {
  {
    common::MutexLock lock(free_mutex_);
    if (!free_.empty()) {
      std::unique_ptr<DpWorkspace> workspace = std::move(free_.back());
      free_.pop_back();
      return workspace;
    }
  }
  // A fresh allocation means the pool was undersized for the concurrency.
  static telemetry::Counter& fresh_allocs = telemetry::counter("dp.pool.fresh_allocs");
  fresh_allocs.add(1);
  return std::make_unique<DpWorkspace>();
}

void WorkspacePool::release(std::unique_ptr<DpWorkspace> workspace) {
  common::MutexLock lock(free_mutex_);
  free_.push_back(std::move(workspace));
}

std::size_t WorkspacePool::idle_count() const {
  common::MutexLock lock(free_mutex_);
  return free_.size();
}

}  // namespace evvo::core
