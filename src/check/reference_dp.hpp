// Naive reference implementation of the time-expanded DP (differential
// oracle).
//
// This solver is deliberately simple: dense fully-initialized state tables, a
// forward relaxation sweep in plain loop order, no frontier gather, no
// dominance pruning, no fused cost tables, no threads. It exists to check the
// production solver, so it must be *obviously* a transcription of the
// recurrence - every optimization the production solver layers on top
// (frontier gather, pruning, lazy resets, precomputed tables) is something this file
// does not do.
//
// The one thing it shares with production is the float rounding sequence of
// the transition costs and the (j, k)-lexicographic candidate order per
// destination cell. Those are contracts of the production solver (documented
// in dp_solver.hpp: "bit-identical to the scalar path, at any lane width",
// "fused tables with the same float rounding sequence"), and the differential test asserts them
// at table granularity: identical cost, continuous-time, and backpointer
// tables, compared by checksum (dp_common.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dp_solver.hpp"

namespace evvo::check {

struct [[nodiscard]] ReferenceSolution {
  core::PlannedProfile profile;
  double best_cost_mah = 0.0;
  /// Checksum of the final state tables (same scheme as
  /// DpStats::table_checksum). Must equal the production solver's checksum
  /// when the latter runs with dominance_pruning off.
  std::uint64_t table_checksum = 0;
  std::size_t relaxations = 0;
};

/// Solves `problem` with the naive dense sweep. Ignores
/// problem.dominance_pruning (never prunes) and problem.checksum_tables (always checksums). Returns
/// std::nullopt exactly when the production solver would: no feasible
/// trajectory reaches the destination within the horizon.
std::optional<ReferenceSolution> solve_reference_dp(const core::DpProblem& problem);

/// The per-hop-layer gradient the solvers cost transitions at. The production
/// solver buckets layers by gradient quantized to 1e-9 rad and uses the first
/// bucket member's exact grade for the whole bucket; the reference solver and
/// the objective re-coster must replicate that to stay bit-compatible.
std::vector<double> bucketed_layer_grades(const road::Route& route, std::size_t n_hops,
                                          double ds_m);

}  // namespace evvo::check
