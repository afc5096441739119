// Output check: served plans against an independent cold solve.
//
// Every served ticket shares the reference profile of the solve that
// produced it, and that solve's own (leader) ticket has cache_hit unset and
// a zero shift. For a seeded sample of reference profiles the check solves
// the key's canonical state cold at the leader's request time on a fresh
// VelocityPlanner (its own workspace pool), and compares byte for byte:
//  - the leader's materialized plan against the cold solve, and
//  - one hit's materialized plan against the cold solve shifted by the
//    hit's time shift, whose shift must also equal the hit's request time
//    minus the leader's.
// A served reference no leader ticket accounts for fails the check, as does
// a ServiceStats total that disagrees with the requests sent.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "driver.hpp"
#include "scenario.hpp"

namespace evvo::fleetbench {

struct CheckOptions {
  std::size_t sample = 12;  ///< reference profiles re-solved (split plans/replans)
  std::uint64_t seed = 1;
  unsigned threads = 1;     ///< oracle solves run in parallel on this many threads
  /// Self-test only: perturb one node of one served plan before comparing,
  /// which the check must report.
  bool tamper = false;
};

struct CheckResult {
  std::size_t references = 0;  ///< distinct reference profiles served
  std::size_t checked = 0;     ///< plans compared byte for byte
  std::size_t mismatches = 0;
  std::vector<std::string> errors;  ///< first few, for the log

  bool ok() const { return mismatches == 0; }
};

/// Checks `records` (all sent requests whose outcomes the service must
/// account for, set-up included) against cold solves on `scenario`.
CheckResult check_outputs(const Scenario& scenario, std::span<const RequestRecord> records,
                          const CheckOptions& options);

/// ServiceStats identity: requests == cache_hits + solver_runs + rejections,
/// and requests == `sent`. Returns an empty string when both hold.
std::string check_stats(const cloud::ServiceStats& stats, long sent);

}  // namespace evvo::fleetbench
