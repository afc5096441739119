// solve_dp over a span of problems, through one pooled workspace.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/dp_solver.hpp"
#include "core/workspace_pool.hpp"

namespace evvo::core {

/// Solves each problem with solve_dp, in input order, on one workspace
/// checked out of `pool`; std::nullopt marks an infeasible problem. The
/// workspace goes back to the pool even when a solve throws. Exists only
/// for the traced replay in fleetbench/src/layers.cpp, and goes with that
/// benchmark's next change.
[[nodiscard]] inline std::vector<std::optional<DpSolution>> solve_dp_batch(
    std::span<const DpProblem> problems, WorkspacePool& pool) {
  std::unique_ptr<DpWorkspace> workspace = pool.acquire();
  std::vector<std::optional<DpSolution>> out;
  out.reserve(problems.size());
  try {
    for (const DpProblem& problem : problems) out.push_back(solve_dp(problem, *workspace));
  } catch (...) {
    pool.release(std::move(workspace));
    throw;
  }
  pool.release(std::move(workspace));
  return out;
}

}  // namespace evvo::core
