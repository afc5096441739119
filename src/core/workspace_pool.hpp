// Free-list of DP workspaces with route affinity.
//
// A workspace caches the model tables (feasible hops, per-grade transition
// costs) of the route it last solved and rebuilds them only when the route
// content, energy model or resolution changes. A plain LIFO free-list
// defeats that cache under interleaved traffic - a solve of corridor A would
// check out the workspace a solve of corridor B just released and rebuild
// the tables. acquire() therefore prefers the most recently released entry
// whose affinity tag (the planner uses the route content hash of the problem
// about to be solved) matches, and falls back to LIFO only when nothing
// matches.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/dp_solver.hpp"

namespace evvo::core {

class WorkspacePool {
 public:
  struct Entry {
    DpWorkspace workspace;
    /// Caller-maintained tag of what this entry last solved; matched by
    /// acquire(). 0 = never used.
    std::uint64_t affinity = 0;
  };

  /// Checks an entry out of the pool: the most recently released entry
  /// tagged `affinity` if any, else the most recently released entry of any
  /// tag (LIFO keeps caches hot), else a fresh one. Never blocks on a solve.
  std::unique_ptr<Entry> acquire(std::uint64_t affinity) EVVO_EXCLUDES(free_mutex_);

  /// Returns an entry to the pool. The caller sets entry->affinity to the
  /// tag of the solve it just ran before releasing.
  void release(std::unique_ptr<Entry> entry) EVVO_EXCLUDES(free_mutex_);

  /// Entries currently idle in the pool (diagnostics/tests).
  std::size_t idle_count() const EVVO_EXCLUDES(free_mutex_);

 private:
  mutable common::Mutex free_mutex_{common::LockRank::kWorkspacePool};
  std::vector<std::unique_ptr<Entry>> free_ EVVO_GUARDED_BY(free_mutex_);  // back = most recent
};

}  // namespace evvo::core
