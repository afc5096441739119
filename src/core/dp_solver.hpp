// Time-expanded dynamic-programming velocity optimizer (paper Sec. II-C).
//
// The paper's recursion Eq. (8) optimizes over discrete velocities per
// equal-distance point and evaluates arrival times t(s_i) (Eq. 10) against
// the zero-queue windows T_q (Eq. 11). Arrival time is a function of the
// whole velocity history, so over (position, velocity) alone the problem is
// non-Markovian; the standard fix - used here - is to make (discretized)
// time an explicit state axis. States are (layer i, velocity v_j, time bin
// t_k); each cell also stores the continuous arrival time of its best path,
// so window tests do not accumulate binning error.
//
// Transitions apply constant acceleration over one distance step (Eq. 7b),
// respect per-segment speed limits (Eq. 7a), force v = 0 at stop signs,
// source, and destination (Eq. 7c-d), and charge the EV energy model
// (Eq. 3) as the transition cost g1 (Eq. 9). Crossings of a signal layer
// outside T_q incur the Eq. (12) penalty. Zero-speed states may dwell in
// place (waiting at a stop line) at accessory-power cost, which keeps the
// problem feasible for every signal schedule.
//
// Solver data path (vs. the dense-relaxation formulation):
//  - Reachable-frontier sweep: only the live (velocity, time-bin) cells of a
//    layer are expanded. Most of the n_v x n_t table is unreachable -
//    especially in early layers, where the arrival-time spread is narrow -
//    so the frontier is a small fraction of the grid.
//  - Banded layers: each (layer, velocity) row has a live time-bin band
//    [lo, hi), computed before a layer is relaxed into from the earliest and
//    latest source of every hop that feeds the row (source times ascend
//    within a row, and the float add and the binning are monotone), so it
//    holds every cell the relaxation can write. The reset, the dwell, the
//    source gather, the table checksum and the destination scan touch band
//    cells only, and each layer's backpointers are kept only inside its
//    bands, packed one layer after another for the backtrack.
//  - Dominance pruning: past the last enforced signal window, a state is
//    dropped when an earlier-or-equal-time state at the same (layer,
//    velocity) is strictly cheaper; remaining transition costs are then
//    time-independent, so the dominated state cannot improve the optimum.
//  - Bound pruning (branch and bound over the time-expanded grid): a state
//    is dropped when its cost plus a time-free lower bound on the cost to
//    finish from its (layer, velocity) exceeds an incumbent plan's cost.
//    The lower bound is a backward DP over (layer, velocity) on the fused
//    cost tables below, under the relaxation's speed-limit, stop-sign and
//    terminal rules; rows with no way to finish are dropped outright. The
//    incumbent is the same DP solved on a 16x coarser time axis. Every state
//    that could win a cell on the optimal path passes the test, so whenever
//    the pruned optimum is no worse than the incumbent it is the unpruned
//    plan bit for bit; otherwise the solve is repeated without an incumbent
//    (counted in dp.bound_fallbacks).
//  - Fused cost tables: per grade class (few distinct grades exist along a
//    route), the transition energy, the time-value term lambda*dt, and the
//    smoothness regularizer are pre-added into one flat table with the same
//    float rounding sequence as the naive inner loop, making the relaxation
//    a pure load-add-compare.
//  - Gather relaxation: each layer is relaxed in one kernel call on the
//    caller's thread, destination row by destination row, each row scanning
//    the source states that can reach it. Concurrency comes from concurrent
//    callers (PlanService, fleetbench clients), each on its own workspace.
//  - SIMD relaxation: away from enforced signal windows the inner source
//    scan runs one vector of states per step (common/simd.hpp). The arrival
//    time, horizon test, and candidate cost are computed lane-wise with
//    exactly the scalar operation sequence. A full chunk whose sources sit
//    in consecutive time bins is binned by float compares against a
//    per-solve bin-edge table (edge k = the smallest float arrival whose
//    double-precision bin is >= k) and stored by two masked vector
//    compare-exchanges: first the lanes that landed one bin further up,
//    then the rest. Only an up lane l and a not-up lane l + 1 can share a
//    cell, so that order replays the scalar source order. Every other chunk
//    (ragged, over the horizon, non-consecutive, a lane off the expected
//    pair of bins, or a stop-sign layer) takes the exact route: double
//    binning and a scalar strict-< scatter in source order. Either way the
//    solve (tables, stats, ties) is bit-identical to the scalar path, at
//    any lane width.
//  - Run-time kernel selection: the relaxation loop is a kernel over plain
//    pointers (core/dp_relax.hpp) compiled once with the tree's flags (SSE2,
//    NEON, or scalar) and, on x86-64 builds with the baseline ISA, once more
//    with -mavx2. solve_dp runs the AVX2 copy (8 lanes) when the CPU reports
//    AVX2, else the baseline one; dp_kernel_name() says which.
//    detail::solve_dp_with_kernel forces any kernel, the scalar scan
//    included, for differential checking.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "core/dp_common.hpp"
#include "core/dp_relax.hpp"
#include "core/penalty.hpp"
#include "core/planned_profile.hpp"
#include "ev/energy_model.hpp"
#include "road/route.hpp"
#include "road/signals.hpp"

namespace evvo::core {

namespace detail {
class DpEngine;
}

/// Grid resolutions of the time-expanded DP.
struct DpResolution {
  double ds_m = 10.0;      ///< distance step between layers
  double dv_ms = 0.5;      ///< velocity quantum
  double dt_s = 1.0;       ///< time-bin width (continuous times are still propagated)
  double horizon_s = 450.0;///< maximum trip duration considered
  /// Read by nothing: every solve runs on its caller's thread. Kept only
  /// because fleetbench/src/scenario.cpp assigns it; it goes with the
  /// benchmark's next change.
  unsigned threads = 0;

  void validate() const;
};

/// A regulatory event snapped to a grid layer.
struct LayerEvent {
  enum class Type { kStopSign, kSignal };
  Type type = Type::kSignal;
  std::size_t layer = 0;
  double dwell_s = 0.0;                    ///< stop sign: mandatory standstill
  bool enforce_windows = false;            ///< signal: check T_q on crossing
  std::vector<road::TimeWindow> windows;   ///< T_q (absolute times)
};

/// Everything the solver needs for one trip.
struct DpProblem {
  const road::Route* route = nullptr;
  const ev::EnergyModel* energy = nullptr;
  Seconds depart_time{};
  DpResolution resolution{};
  PenaltyConfig penalty{};
  std::vector<LayerEvent> events;

  /// Boundary speeds. The paper's Eq. (7d) fixes both to 0 (a full trip from
  /// rest to rest); a mid-route replan instead starts from the vehicle's
  /// current speed. Speeds are snapped to the velocity grid.
  MetersPerSecond initial_speed{};
  MetersPerSecond final_speed{};

  /// Smoothness regularizer: extra cost per m/s of speed change across a
  /// hop [mAh per m/s]. Under the paper's symmetric Eq. (3) regeneration, a
  /// micro-oscillation between adjacent velocity levels is energy-free, so
  /// the solver is otherwise indifferent to chattering profiles; a small
  /// weight breaks those ties toward smooth (comfortable, battery-friendly)
  /// plans without measurably changing trip energy.
  double smoothness_weight_mah_per_ms = 0.3;

  /// Value of travel time, expressed as an equivalent charge rate [mAh/s]
  /// added to every second of the trip (driving, dwelling, and mandatory
  /// stops alike). The paper's evaluation reports that the optimal profile
  /// does not increase trip time over fast driving; a pure-energy objective
  /// would instead crawl (slower is always cheaper per meter below the
  /// aerodynamic crossover), so the trip-time value the paper leaves implicit
  /// is made explicit here. The default in PlannerConfig is calibrated so the
  /// optimizer's trip time lands at the paper's (~283 s over the corridor);
  /// bench_ablation sweeps it. 0 recovers the pure-energy objective.
  double time_weight_mah_per_s = 0.0;

  /// Drop dominated states past the last enforced signal window, and states
  /// that cannot beat the incumbent (see the header comment). Disable to
  /// force the exhaustive sweep; pruned and unpruned solves return
  /// bit-identical plans and best costs.
  bool dominance_pruning = true;

  /// Checksum the state tables into DpStats::table_checksum (see
  /// dp_common.hpp). Off by default: it reads every band cell of every
  /// layer a second time. The check harness uses it to assert table-level
  /// identity across relaxation kernels and against the naive reference
  /// solver, whose full rows hash the same as the banded ones.
  bool checksum_tables = false;

  void validate() const;
};

/// Solver diagnostics.
struct [[nodiscard]] DpStats {
  std::size_t layers = 0;
  std::size_t velocity_levels = 0;
  std::size_t time_bins = 0;
  /// Work counters summed over every sweep of the solve: the coarse
  /// incumbent pre-solve and any fallback re-solve included.
  std::size_t relaxations = 0;
  std::size_t frontier_states = 0;  ///< live states expanded across all layers
  std::size_t pruned_states = 0;    ///< states dropped by dominance or bound pruning
  double best_cost_mah = 0.0;
  /// FNV checksum of the reachable state tables (0 unless
  /// DpProblem::checksum_tables was set).
  std::uint64_t table_checksum = 0;
};

struct [[nodiscard]] DpSolution {
  PlannedProfile profile;
  DpStats stats;
};

/// Reusable solver memory: the state tables, the per-layer source lists,
/// and the model-derived cost tables.
///
/// No state table is ever cleared in full. Each (layer, velocity) row has a
/// live time-bin band (see the header comment); a layer's bands are reset
/// to +inf just before it is relaxed into, nothing outside them is read,
/// and time and backpointer cells are only ever read behind a finite cost,
/// so no cell is ever read stale. A layer's costs and times are read only
/// while it is the layer being relaxed (the kernel reads the gathered source
/// list), so the cost, time and backpointer tables hold one layer each,
/// overwritten by the next, and stay in cache; extraction replays the path's
/// times. For the backtrack, each layer's backpointer bands are copied into
/// an arena after its dwell expansion, one band after another. The model
/// tables (feasible hops per velocity level, per-grade-class transition
/// costs) and the cost-to-go bound are rebuilt by every solve, once, from
/// its own route, energy model and grid, and serve all its sweeps; only
/// their allocations carry over. A build costs well under a millisecond
/// against tens of milliseconds for the solve, so no solve depends on what
/// an earlier one left behind.
///
/// A workspace is NOT thread-safe: one solve at a time per workspace.
/// VelocityPlanner keeps a pool of them so concurrent plan() calls each
/// check one out.
namespace detail {

/// Growable buffer that never value-initializes: growing to N elements is
/// one allocation, not an allocation plus an N-element memset. It holds the
/// backpointer arena, which is sized for the full layers x velocities x bins
/// grid but of which a solve writes only its bands, a prefix of a tenth or
/// so, and reads only what it wrote: the zero-fill a std::vector would do
/// would touch every page, while untouched pages are never made resident.
/// Growth discards contents - callers grow only between solves.
template <typename T>
class UninitBuffer {
 public:
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  void grow_to(std::size_t n) {
    if (n <= size_) return;
    data_ = std::make_unique_for_overwrite<T[]>(n);
    size_ = n;
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
};

}  // namespace detail

class DpWorkspace {
 public:
  DpWorkspace() = default;
  DpWorkspace(const DpWorkspace&) = delete;
  DpWorkspace& operator=(const DpWorkspace&) = delete;

  /// Backpointer cells the last solve kept in its final sweep: the cells of
  /// every layer's bands (diagnostics).
  std::size_t backpointer_cells() const { return back_cells_; }

  /// Bytes of state tables the last solve used: the one-layer cost, time and
  /// backpointer tables plus the arena cells it filled, not the arena's
  /// reserved size (diagnostics).
  std::size_t state_bytes() const {
    return (cost_.size() + time_.size()) * sizeof(float) +
           (back_.size() + back_cells_) * sizeof(std::uint32_t);
  }

 private:
  friend class detail::DpEngine;

  using RevHop = detail::RevHop;

  // --- model tables (rebuilt by every solve; see DpEngine::build_model_tables) ---
  std::vector<RevHop> rev_hops_;            ///< flattened hops grouped by destination level
  std::vector<std::uint32_t> rev_begin_;    ///< n_v + 1 offsets into rev_hops_
  std::vector<float> grade_energy_;         ///< [class][j][j2] transition energy [mAh]
  std::vector<float> grade_fused_;          ///< energy + lambda*dt + smoothness, seed rounding
  std::vector<std::uint32_t> layer_class_;  ///< hop layer -> grade class index
  std::vector<double> layer_limit_;         ///< per-layer posted speed limit
  std::vector<double> cost_to_go_;          ///< [layer][v] lower bound on the cost to finish

  // --- per-solve state (each layer's bands reset just before it is relaxed into) ---
  std::vector<float> cost_;                    ///< one layer, overwritten by each in turn
  std::vector<float> time_;                    ///< one layer, like cost_
  std::vector<std::uint32_t> back_;            ///< one layer, like cost_
  detail::UninitBuffer<std::uint32_t> back_arena_;  ///< every layer's back_ bands, packed
  std::vector<detail::BinBand> bands_;         ///< [layer][v] live time-bin band
  std::vector<std::size_t> back_offset_;       ///< [layer][v] arena index of the band's lo cell
  std::size_t back_cells_ = 0;                 ///< arena cells filled by the last sweep

  // --- per-layer scratch: compact source list in (j, k)-lex order ---
  std::vector<std::uint32_t> src_pred_;     ///< packed backpointer (j << 20 | k)
  std::vector<float> src_cost_;             ///< cost + mandatory-stop charge
  std::vector<float> src_time_;             ///< arrival time + mandatory dwell
  std::vector<std::uint8_t> src_inside_;    ///< inside the signal window T_q
  std::vector<std::uint32_t> row_begin_;    ///< n_v + 1 offsets into the source list
};

/// Runs the DP. Returns std::nullopt only if no feasible trajectory reaches
/// the destination within the horizon. This overload allocates a throwaway
/// workspace.
[[nodiscard]] std::optional<DpSolution> solve_dp(const DpProblem& problem);

/// As above, reusing `workspace` across calls.
[[nodiscard]] std::optional<DpSolution> solve_dp(const DpProblem& problem, DpWorkspace& workspace);

/// Name of the relaxation kernel solve_dp runs: "avx2", "sse2", "neon" or
/// "scalar". Fixed for the process: it depends on the build and the running
/// CPU only.
[[nodiscard]] const char* dp_kernel_name();

namespace detail {

/// The relaxation kernels a build can hold. Every one is bit-identical to
/// every other; this is a seam for the identity oracles and tests, not a
/// tuning knob.
enum class DpKernel : std::uint8_t {
  kScalar,  ///< the scalar source scan (solve_dp's choice on scalar-backend builds)
  kVector,  ///< the build's baseline vector backend (sse2, neon; avx2 under EVVO_SIMD_ARCH=avx2)
  kAvx2,    ///< the run-time dispatched -mavx2 copy
};

struct DpKernelInfo {
  DpKernel kernel = DpKernel::kScalar;
  const char* name = "scalar";
  std::size_t lanes = 1;  ///< float lanes per vector step
};

/// Kernels this build compiled that the running CPU can execute, scalar
/// first; the last entry is the one solve_dp runs.
[[nodiscard]] std::vector<DpKernelInfo> dp_kernels();

/// solve_dp with the relaxation kernel forced. Throws
/// std::invalid_argument for a kernel dp_kernels() does not list.
[[nodiscard]] std::optional<DpSolution> solve_dp_with_kernel(const DpProblem& problem,
                                                             DpWorkspace& workspace,
                                                             DpKernel kernel);

/// solve_dp with the bound-pruning incumbent forced to `incumbent` instead of
/// the coarse pre-solve's cost (no pre-solve runs). An incumbent below the
/// optimum takes the fallback re-solve; +inf prunes dead-end rows only.
/// Either way the plan is solve_dp's. A seam for tests, like the one above.
[[nodiscard]] std::optional<DpSolution> solve_dp_with_incumbent(const DpProblem& problem,
                                                                DpWorkspace& workspace,
                                                                double incumbent);

}  // namespace detail

}  // namespace evvo::core
