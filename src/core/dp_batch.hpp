// Batched structure-of-arrays multi-scenario DP (perf layer over
// core/dp_solver.hpp).
//
// A PlanService miss storm on one corridor produces many *compatible* solver
// runs: same route content, same grid resolution, same penalty/regularizer
// configuration - differing only in departure time, signal-window contents,
// boundary speeds, and checksum requests. Each standalone solve walks the
// same multi-megabyte state tables and the same reverse-hop adjacency; K
// compatible scenarios therefore re-read identical model data K times.
//
// solve_dp_batch() packs K = VecF::kWidth compatible scenarios into one
// sweep over the velocity grid. The state tables are lane-interleaved
// (element index = state_index * K + lane), so one vector load touches the
// same (layer, velocity, time-bin) cell of all K scenarios, and the gather /
// relax / scatter arithmetic of dp_solver.cpp runs lane-wise across
// *scenarios* instead of across source states. All vector ops go through
// common/simd.hpp; on the scalar backend K == 1 and the kernel degrades to
// the plain scalar solver.
//
// Identity contract: each lane's result is bit-identical to a standalone
// solve_dp() of the same problem - same float operation order per lane, same
// strict-< tie-breaks, same DpStats, same table checksum. The batched sweep
// achieves this by construction:
//  - the per-entry arithmetic (arrival add, horizon threshold compare,
//    widen-to-double binning, fused-cost add) is the scalar sequence applied
//    lane-wise, and every lane-varying input (departure, threshold, window
//    membership) is a per-lane vector lane;
//  - the union frontier visits cells in the same (j, k)-lex order as the
//    scalar gather, with a per-entry live-lane bitmask, so each lane sees
//    exactly its own source list in its own order;
//  - the scalar kernel's early `break` on over-horizon sources becomes a
//    per-row live-lane mask (source times ascend within a row, so a lane
//    that goes over is over for the rest of the row);
//  - the scatter performs masked compare-exchanges per destination bin in
//    ascending entry order, preserving the strict-< first-wins tie-break.
// The contract is enforced by src/check/batch_identity.hpp and the
// fuzz_batch_identity ctest / evvo_fuzz --batch mode.
//
// Grouping: requests are grouped by DpBatchKey (route content, grid shape,
// penalty config, event skeleton). Full K-size chunks of a group run the SoA
// sweep; ragged remainders fall back to the standalone solver per lane,
// reusing the group's workspace (the cached model tables are shared either
// way). Infeasible lanes are native to the sweep - a lane whose frontier
// empties simply freezes (its rows stay +inf, contributing no counts),
// exactly matching the standalone solver's early stop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/dp_solver.hpp"

namespace evvo::common {
class ThreadPool;
}

namespace evvo::core {

class WorkspacePool;

/// Lanes per SoA chunk (8 on AVX2, 4 on SSE2/NEON, 1 on the scalar backend).
std::size_t dp_batch_lanes();

/// Compatibility fingerprint: two problems may share a batched sweep iff
/// their keys compare equal. Everything that shapes the grid, the cached
/// model tables, or the shared control flow is in the key; departure time,
/// window *contents*, boundary speeds, and checksum requests are per-lane.
/// `resolution.threads` is excluded: it does not affect results
/// (bit-identical at any thread count), so it must not split
/// otherwise-identical groups.
struct DpBatchKey {
  /// Per-event skeleton: layer placement, type, dwell, and whether windows
  /// are enforced must agree across lanes (they steer shared branches); the
  /// window lists themselves are free to differ.
  struct EventSkeleton {
    LayerEvent::Type type = LayerEvent::Type::kSignal;
    std::size_t layer = 0;
    double dwell_s = 0.0;
    bool enforce_windows = false;
    bool operator==(const EventSkeleton&) const = default;
  };

  std::uint64_t route_hash = 0;
  const void* energy = nullptr;
  double ds_m = 0.0, dv_ms = 0.0, dt_s = 0.0, horizon_s = 0.0;
  PenaltyMode penalty_mode = PenaltyMode::kMultiplicative;
  double penalty_m = 0.0, penalty_additive_mah = 0.0, penalty_min_cost_mah = 0.0;
  double smoothness = 0.0, time_weight = 0.0;
  bool dominance_pruning = true;
  std::vector<EventSkeleton> events;

  bool operator==(const DpBatchKey&) const = default;

  static DpBatchKey of(const DpProblem& problem);
};

/// Dispatch accounting for one solve_dp_batch() call (also pushed to the
/// dp.batch.* telemetry counters).
struct [[nodiscard]] DpBatchStats {
  std::size_t groups = 0;          ///< distinct DpBatchKey groups seen
  std::size_t batched_lanes = 0;   ///< scenarios solved by the SoA sweep
  std::size_t fallback_lanes = 0;  ///< ragged-remainder scenarios solved standalone
};

/// Solves every problem, batching compatible ones. Results are returned in
/// input order; std::nullopt marks an infeasible scenario, exactly as
/// solve_dp would have reported it. Workspaces are checked out of `pool`
/// (one per group, a single pool-lock acquisition for the whole batch) and
/// returned before this function exits, including on throw. `thread_pool`
/// parallelizes the per-layer relaxation stripes exactly as in solve_dp;
/// results are bit-identical at any thread count. Invalid problems throw
/// the same exceptions as solve_dp.
[[nodiscard]] std::vector<std::optional<DpSolution>> solve_dp_batch(
    std::span<const DpProblem> problems, WorkspacePool& pool,
    common::ThreadPool* thread_pool = nullptr, DpBatchStats* stats = nullptr);

}  // namespace evvo::core
