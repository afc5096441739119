// Fleet study: how much energy does queue-aware planning save across a whole
// day of departures? The day's trips are planned through the vehicular-cloud
// PlanService (paper Sec. I): one batch request per policy fans the
// departures across the service's worker pool, and departures whose
// (signal phase, demand bin) coincide are served from cache instead of
// re-running the DP. Each plan is then executed in traffic of the hour's
// actual intensity and the savings are aggregated against the
// queue-oblivious baseline - the deployment view of the paper's system.
#include <iostream>
#include <memory>

#include "cloud/plan_service.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/planner.hpp"
#include "core/profile_eval.hpp"
#include "data/synthetic_volume.hpp"
#include "ev/energy_model.hpp"
#include "road/corridor.hpp"
#include "sim/calibration.hpp"
#include "sim/traci.hpp"
#include "traffic/traffic_predictor.hpp"

int main() {
  using namespace evvo;

  const road::Corridor corridor = road::make_us25_corridor();
  const ev::EnergyModel energy;
  sim::MicrosimConfig sim_config;

  // Forecast the test Monday with the SAE model.
  const data::VolumeDataset ds = data::make_us25_dataset();
  traffic::PredictorConfig predictor_cfg;
  predictor_cfg.sae.pretrain_epochs = 10;
  predictor_cfg.sae.finetune_epochs = 80;
  traffic::SaeVolumePredictor sae(predictor_cfg);
  std::cout << "training SAE forecaster...\n";
  sae.fit(ds.train);
  const auto forecast = traffic::predict_series(sae, ds.train, ds.test);

  // The cloud service plans against the forecast arrival rates, addressed by
  // absolute departure time (test-day hour h lives at t = h * 3600 s).
  std::vector<double> lane_forecast(forecast);
  for (double& v : lane_forecast) v /= sim_config.lane_equivalent_count;
  const auto forecast_rate = std::make_shared<traffic::SeriesArrivalRate>(
      traffic::HourlyVolumeSeries(lane_forecast, ds.test.start_hour_of_week()));

  const auto make_service = [&](core::SignalPolicy policy) {
    core::PlannerConfig cfg;
    cfg.policy = policy;
    cfg.vm = sim::calibrated_vm_params(sim_config.background_driver, 13.4,
                                       sim_config.straight_ratio);
    return cloud::PlanService(core::VelocityPlanner(corridor, energy, cfg), forecast_rate);
  };
  cloud::PlanService ours_service = make_service(core::SignalPolicy::kQueueAware);
  cloud::PlanService base_service = make_service(core::SignalPolicy::kGreenWindow);

  // One batch of departures per policy: ten minutes past every studied hour.
  std::vector<int> hours;
  std::vector<cloud::PlanRequest> requests;
  for (int hour = 5; hour <= 21; hour += 2) {
    hours.push_back(hour);
    requests.push_back({hour, hour * 3600.0 + 600.0});
  }
  std::cout << "planning " << requests.size() << " departures per policy via the cloud service\n";
  const std::vector<cloud::PlanTicket> ours_plans = ours_service.request_plan_tickets(requests);
  const std::vector<cloud::PlanTicket> base_plans = base_service.request_plan_tickets(requests);

  TextTable table({"depart", "demand [veh/h]", "ours [mAh]", "baseline [mAh]", "saving [%]"});
  std::vector<double> savings;
  for (std::size_t i = 0; i < hours.size(); ++i) {
    const int hour = hours[i];
    // Traffic of that hour's actual intensity; the plans used the forecast.
    const double actual_veh_h = ds.test.at(static_cast<std::size_t>(hour));
    const auto demand = std::make_shared<traffic::ConstantArrivalRate>(flow_from_veh_h(actual_veh_h));

    const auto run = [&](const core::PlannedProfile& profile) {
      // Execute at simulator time 600 s: the absolute departure differs from
      // it by a whole number of signal hyperperiods, so the shifted plan's
      // crossings stay aligned with the lights.
      const core::PlannedProfile plan = profile.time_shifted(600.0 - profile.depart_time());
      sim::MicrosimConfig run_cfg = sim_config;
      run_cfg.seed = 100 + static_cast<std::uint64_t>(hour);
      sim::Microsim simulator(corridor, run_cfg, demand);
      simulator.run_until(plan.depart_time());
      sim::DriverParams ego;
      ego.accel_ms2 = energy.params().max_acceleration;
      ego.decel_ms2 = -energy.params().min_acceleration * 2.0;
      const auto exec = sim::execute_planned_profile(simulator, plan.target_speed_fn(), 0.0,
                                                     corridor.length(), 600.0, ego);
      return exec.completed
                 ? core::evaluate_cycle(energy, corridor.route, exec.cycle).energy.charge_mah
                 : -1.0;
    };

    const double ours = run(ours_plans[i].materialize());
    const double base = run(base_plans[i].materialize());
    if (ours < 0.0 || base < 0.0) {
      table.add_row({std::to_string(hour) + ":00", format_double(actual_veh_h, 0), "timeout",
                     "timeout", "-"});
      continue;
    }
    const double saving = core::percent_saving(base, ours);
    savings.push_back(saving);
    table.add_row({std::to_string(hour) + ":00", format_double(actual_veh_h, 0),
                   format_double(ours, 1), format_double(base, 1), format_double(saving, 1)});
  }
  table.print(std::cout);

  const auto print_stats = [](const char* name, const cloud::ServiceStats& stats) {
    std::cout << name << " service: " << stats.requests << " requests, " << stats.solver_runs
              << " solver runs, " << stats.cache_hits << " cache hits\n";
  };
  std::cout << '\n';
  print_stats("queue-aware", ours_service.stats());
  print_stats("baseline", base_service.stats());

  std::cout << "\nfleet summary over " << savings.size()
            << " departures: mean saving " << format_double(mean(savings), 1) << " %, best "
            << format_double(*std::max_element(savings.begin(), savings.end()), 1)
            << " %, worst " << format_double(*std::min_element(savings.begin(), savings.end()), 1)
            << " %\n";
  return 0;
}
