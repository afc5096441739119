// The benchmark's one entry point into cloud::PlanService.
//
// Every request the benchmark sends - set-up warm-up, open-loop dispatch,
// closed-loop vehicles - goes through serve(). A change to the service's
// request API is therefore a change to this file alone.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "cloud/plan_service.hpp"
#include "scenario.hpp"

namespace evvo::fleetbench {

/// What one request got back. `ok` is false when the service threw for the
/// request's call (an overload rejection or a failed solve).
struct Outcome {
  cloud::PlanTicket ticket;
  bool ok = false;
};

/// Serves `batch` as one dispatch (plans, then replans, each through the
/// service's batched ticket path) and returns outcomes in request order.
std::vector<Outcome> serve(cloud::PlanService& service, std::span<const Request> batch);

/// The drivers' view of the service: a batch in, outcomes out. Tests plug a
/// stub in here; the benchmark binds serve() to its PlanService.
using ServeFn = std::function<std::vector<Outcome>(std::span<const Request>)>;

ServeFn bind_service(cloud::PlanService& service);

}  // namespace evvo::fleetbench
