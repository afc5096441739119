#include "adapter.hpp"

namespace evvo::fleetbench {

std::vector<Outcome> serve(cloud::PlanService& service, std::span<const Request> batch) {
  std::vector<cloud::PlanRequest> plans;
  std::vector<cloud::ReplanRequest> replans;
  std::vector<std::size_t> plan_at;
  std::vector<std::size_t> replan_at;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    if (r.replan) {
      replans.push_back({r.vehicle, r.position_m, r.speed_ms, r.time_s});
      replan_at.push_back(i);
    } else {
      plans.push_back({r.vehicle, r.time_s});
      plan_at.push_back(i);
    }
  }

  std::vector<Outcome> out(batch.size());
  // A throwing call has served every group it could but returns none of
  // them, so the whole call counts as failed.
  const auto settle = [&out](const std::vector<std::size_t>& at, auto&& call) {
    if (at.empty()) return;
    try {
      std::vector<cloud::PlanTicket> tickets = call();
      for (std::size_t k = 0; k < at.size(); ++k) out[at[k]] = Outcome{std::move(tickets[k]), true};
    } catch (const std::exception&) {
      for (std::size_t i : at) out[i].ok = false;
    }
  };
  settle(plan_at, [&] { return service.request_plan_tickets(plans); });
  settle(replan_at, [&] { return service.request_replan_tickets(replans); });
  return out;
}

ServeFn bind_service(cloud::PlanService& service) {
  return [&service](std::span<const Request> batch) { return serve(service, batch); };
}

}  // namespace evvo::fleetbench
