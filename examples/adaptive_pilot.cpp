// Closed-loop deployment demo: a vehicular-cloud service hands out cached
// optimal profiles, and an adaptive pilot drives them through traffic,
// replanning mid-route when the road disagrees with the plan.
#include <iostream>
#include <memory>

#include "cloud/plan_service.hpp"
#include "common/table.hpp"
#include "core/profile_eval.hpp"
#include "ev/soc_trace.hpp"
#include "pilot/pilot.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"

int main() {
  using namespace evvo;

  const road::Corridor corridor = road::make_us25_corridor();
  const ev::EnergyModel energy;
  sim::MicrosimConfig sim_config;
  const auto demand = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(1530.0));
  const auto lane_demand = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(765.0));

  core::PlannerConfig cfg;
  cfg.vm = sim::calibrated_vm_params(sim_config.background_driver, 13.4,
                                     sim_config.straight_ratio);
  core::VelocityPlanner planner(corridor, energy, cfg);

  // The cloud service: many vehicles, few DP solves.
  cloud::PlanService service(planner, lane_demand);
  std::cout << "cloud service up; signal hyperperiod H = " << service.hyperperiod() << " s\n\n";

  TextTable fleet({"vehicle", "depart [s]", "cache", "energy [mAh]", "trip [s]", "replans",
                   "final SoC [%]"});
  for (int vehicle = 0; vehicle < 6; ++vehicle) {
    const double depart = 600.0 + vehicle * 120.0;  // all phase-congruent (120 = 2H)
    const cloud::PlanRequest request{vehicle, depart};
    const cloud::PlanTicket ticket = service.request_plan_tickets({&request, 1}).front();

    // Each vehicle drives its plan with the adaptive pilot in its own traffic.
    sim::MicrosimConfig run_cfg = sim_config;
    run_cfg.seed = 40 + static_cast<std::uint64_t>(vehicle);
    sim::Microsim simulator(corridor, run_cfg, demand);
    simulator.run_until(depart);
    const pilot::PilotResult result =
        pilot::drive_with_replanning(simulator, planner, lane_demand);

    const auto eval = core::evaluate_cycle(energy, corridor.route, result.cycle);
    ev::BatteryPack pack;
    pack.reset(0.8);
    const ev::SocTrace soc = ev::run_battery(energy, pack, result.cycle,
                                             [&](double s) { return corridor.route.grade_at(s); });
    fleet.add_row({std::to_string(vehicle), format_double(depart, 0),
                   ticket.cache_hit ? "hit" : "miss", format_double(eval.energy.charge_mah, 1),
                   format_double(result.trip_time(), 1), std::to_string(result.replans),
                   format_double(soc.final_soc() * 100.0, 2)});
  }
  fleet.print(std::cout);

  const cloud::ServiceStats stats = service.stats();
  std::cout << "\nservice stats: " << stats.requests << " requests, " << stats.cache_hits
            << " cache hits, " << stats.solver_runs << " DP solves\n";
  return 0;
}
