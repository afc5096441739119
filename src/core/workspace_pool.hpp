// Free-list of DP workspaces.
//
// A workspace keeps its state-table and model-table allocations across
// solves, and every solve refills what it reads, so any idle workspace
// serves any problem. acquire() hands out the most recently released one
// (LIFO keeps its memory warm in cache) and allocates only when none is idle.
#pragma once

#include <memory>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/dp_solver.hpp"

namespace evvo::core {

class WorkspacePool {
 public:
  /// Checks a workspace out of the pool: the most recently released one,
  /// else a fresh one. Never blocks on a solve.
  std::unique_ptr<DpWorkspace> acquire() EVVO_EXCLUDES(free_mutex_);

  /// Returns a workspace to the pool.
  void release(std::unique_ptr<DpWorkspace> workspace) EVVO_EXCLUDES(free_mutex_);

  /// Workspaces currently idle in the pool (diagnostics/tests).
  std::size_t idle_count() const EVVO_EXCLUDES(free_mutex_);

 private:
  mutable common::Mutex free_mutex_{common::LockRank::kWorkspacePool};
  std::vector<std::unique_ptr<DpWorkspace>> free_ EVVO_GUARDED_BY(free_mutex_);  // back = most recent
};

}  // namespace evvo::core
