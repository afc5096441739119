// The library-wide lock acquisition order.
//
// Every common::Mutex in src/ declares one of these ranks at its construction
// site, and nested acquisitions on one thread must be *strictly increasing*
// in rank. That single global order makes deadlock impossible by
// construction: a cycle in the waits-for graph would need some thread to
// acquire a rank <= one it already holds, which the two validators reject —
//
//   static   tools/evvo_lint `lock-order` resolves every nested MutexLock
//            pair against this map and fails CI on any non-increasing pair
//            (and on any src/ mutex declared without a rank);
//   runtime  under -DEVVO_DEADLOCK_CHECK=ON (the TSan CI leg),
//            common::Mutex keeps a thread-local stack of held ranks and
//            aborts with both acquisition sites on the first out-of-order
//            lock, whether or not the interleaving actually deadlocks.
//
// Ordering rationale (low ranks are acquired first, high ranks are leaves):
// the serving path enters through a PlanService shard, may touch its flight
// records and the planner's workspace pool, registers metrics, and logs from
// anywhere — so logging is the highest (leaf) rank, service-entry locks are
// the lowest, and the workspace pool sits in between. Gaps are deliberate:
// new locks slot in without renumbering.
#pragma once

namespace evvo::common {

enum class LockRank : int {
  /// Default for Mutex(): exempt from both validators. Only test fixtures
  /// and scratch tools may leave a mutex unranked; evvo_lint `lock-order`
  /// rejects unranked declarations anywhere under src/.
  kUnranked = 0,

  /// cloud::PlanService::Shard::shard_mutex — the serving entry point; held
  /// across cache lookup/publish (which logs, rank kLogging).
  kPlanShard = 10,

  /// cloud::PlanService::InFlight::flight_mutex — leader/follower handoff
  /// for one single-flight solve.
  kPlanFlight = 20,

  /// core::WorkspacePool::free_mutex_ — solver-context checkout.
  kWorkspacePool = 40,

  /// The telemetry registry (common/telemetry.cpp registry_mutex_): metric
  /// registration and snapshot only — hot-path metric updates are atomic and
  /// never lock. Near-leaf so any subsystem may register its metrics while
  /// holding its own locks; only logging nests inside it.
  kTelemetryRegistry = 80,

  /// The logging sink (common/logging.cpp g_log_mutex): a leaf every
  /// subsystem may enter while holding any other lock.
  kLogging = 90,
};

/// Name for diagnostics ("kPlanShard"); "?" for values outside the enum.
constexpr const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kPlanShard: return "kPlanShard";
    case LockRank::kPlanFlight: return "kPlanFlight";
    case LockRank::kWorkspacePool: return "kWorkspacePool";
    case LockRank::kTelemetryRegistry: return "kTelemetryRegistry";
    case LockRank::kLogging: return "kLogging";
  }
  return "?";
}

}  // namespace evvo::common
