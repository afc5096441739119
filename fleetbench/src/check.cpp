#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/random.hpp"

namespace evvo::fleetbench {

namespace {

struct Reference {
  const RequestRecord* leader = nullptr;
  const RequestRecord* hit = nullptr;  ///< first hit served from it, if any
};

bool same_bytes(const std::vector<core::PlanNode>& a, const std::vector<core::PlanNode>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(core::PlanNode)) == 0);
}

/// The cold solve of the leader's canonical state: full trips plan at the
/// request time; replans start from the state's grid point, exactly as the
/// service quantizes it.
core::PlannedProfile cold_solve(const Scenario& scenario, const Request& leader) {
  const core::VelocityPlanner planner = scenario.fresh_planner();
  if (!leader.replan) return planner.plan(Seconds(leader.time_s), scenario.demand);
  const KeyTuple key = key_of(*scenario.service, leader);
  const core::DpResolution& res = scenario.planner_config.resolution;
  const double length = scenario.corridor.length();
  const double grid_ds = length / std::max(1.0, std::round(length / res.ds_m));
  return planner.replan(Meters(static_cast<double>(std::get<2>(key)) * grid_ds),
                        MetersPerSecond(static_cast<double>(std::get<3>(key)) * res.dv_ms),
                        Seconds(leader.time_s), scenario.demand);
}

}  // namespace

CheckResult check_outputs(const Scenario& scenario, std::span<const RequestRecord> records,
                          const CheckOptions& options) {
  CheckResult result;
  std::mutex result_mutex;
  const auto fail = [&](std::string message) {
    const std::lock_guard lock(result_mutex);
    ++result.mismatches;
    if (result.errors.size() < 8) result.errors.push_back(std::move(message));
  };

  std::map<const core::PlannedProfile*, Reference> refs;
  for (const RequestRecord& rec : records) {
    if (!rec.ok || !rec.ticket.reference) continue;
    Reference& ref = refs[rec.ticket.reference.get()];
    if (!rec.ticket.cache_hit) {
      if (ref.leader) fail("two leaders share one reference profile");
      ref.leader = &rec;
    } else if (!ref.hit) {
      ref.hit = &rec;
    }
  }
  result.references = refs.size();

  std::vector<const Reference*> plans;
  std::vector<const Reference*> replans;
  for (const auto& [profile, ref] : refs) {
    if (!ref.leader) {
      fail("a served plan has no leader ticket among the requests sent");
      continue;
    }
    (ref.leader->request.replan ? replans : plans).push_back(&ref);
  }
  // Seeded sample, half full trips and half replans where both exist, drawn
  // from a request-ordered list so it does not depend on heap addresses.
  const auto by_request = [](const Reference* a, const Reference* b) {
    return std::pair(a->leader->request.time_s, a->leader->request.vehicle) <
           std::pair(b->leader->request.time_s, b->leader->request.vehicle);
  };
  std::sort(plans.begin(), plans.end(), by_request);
  std::sort(replans.begin(), replans.end(), by_request);
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 41);
  const auto take = [&](std::vector<const Reference*>& from, std::size_t n) {
    std::vector<const Reference*> out;
    for (std::size_t i : rng.permutation(from.size())) {
      if (out.size() == n) break;
      out.push_back(from[i]);
    }
    return out;
  };
  std::size_t n_replans = std::min(replans.size(), options.sample / 2);
  const std::size_t n_plans = std::min(plans.size(), options.sample - n_replans);
  n_replans = std::min(replans.size(), options.sample - n_plans);
  std::vector<const Reference*> sample = take(plans, n_plans);
  for (const Reference* ref : take(replans, n_replans)) sample.push_back(ref);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> checked{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < sample.size(); i = next++) {
      const Reference& ref = *sample[i];
      const Request& lead = ref.leader->request;
      std::optional<core::PlannedProfile> expected;
      try {
        expected.emplace(cold_solve(scenario, lead));
      } catch (const std::exception& e) {
        fail(std::string("cold solve failed: ") + e.what());
        continue;
      }
      std::vector<core::PlanNode> served = ref.leader->ticket.materialize().nodes();
      if (options.tamper && i == 0 && !served.empty()) served[served.size() / 2].speed_ms += 1e-9;
      ++checked;
      if (!same_bytes(served, expected->nodes())) {
        fail("vehicle " + std::to_string(lead.vehicle) + " (" + (lead.replan ? "replan" : "plan") +
             ", t=" + std::to_string(lead.time_s) + ") differs from its cold solve");
      }
      if (!ref.hit) continue;
      const cloud::PlanTicket& hit = ref.hit->ticket;
      ++checked;
      if (std::abs(hit.time_shift_s - (ref.hit->request.time_s - lead.time_s)) > 1e-6) {
        fail("vehicle " + std::to_string(ref.hit->request.vehicle) + " was served a wrong time shift");
      }
      if (!same_bytes(hit.materialize().nodes(), expected->time_shifted(hit.time_shift_s).nodes())) {
        fail("vehicle " + std::to_string(ref.hit->request.vehicle) +
             " (hit) differs from its leader's cold solve");
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < std::max(1u, options.threads); ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  result.checked = checked;
  return result;
}

std::string check_stats(const cloud::ServiceStats& stats, long sent) {
  if (stats.requests != stats.cache_hits + stats.solver_runs + stats.rejections)
    return "ServiceStats: requests != cache_hits + solver_runs + rejections";
  if (stats.requests != sent) {
    return "ServiceStats: " + std::to_string(stats.requests) + " requests counted, " +
           std::to_string(sent) + " sent";
  }
  return {};
}

}  // namespace evvo::fleetbench
