// Solution extraction for the DP engine (core/dp_solver.cpp): the
// destination scan, tie-break, backtrack, stop-sign dwell materialization,
// and physical-energy annotation over the solved state tables.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "core/dp_common.hpp"
#include "core/dp_solver.hpp"
#include "ev/energy_model.hpp"
#include "road/route.hpp"

namespace evvo::core::detail {

/// `back` is the backpointer table, indexed by flat state index
/// (layer * n_v * n_t + j * n_t + k); `dest_cost` and `dest_time` are the
/// last layer's cost and time tables (j * n_t + k). Time and backpointer
/// cells are only ever read behind a finite cost, which keeps the
/// lazy-reset data path (stale time/back behind +inf) sound here exactly as
/// in the relaxation. The path's node times are replayed from the
/// departure `depart_f` with the sweep's float arithmetic, in its order: a
/// dwell step adds `dt_f`; a hop from layer i adds the stop-sign dwell when
/// layer i holds a sign, then `hop_dt(j, j2)`, the hop's duration.
template <typename HopDt>
std::optional<DpSolution> extract_dp_solution(
    const road::Route& route, const ev::EnergyModel& energy,
    const std::vector<const LayerEvent*>& event_at, std::size_t n_events, double ds, double dv,
    std::size_t n_layers, std::size_t n_t, std::size_t layer_size, std::size_t j_dest,
    DpStats stats, const float* dest_cost, const float* dest_time, const std::uint32_t* back,
    float depart_f, float dt_f, const HopDt& hop_dt) {
  constexpr float kInf = kDpInf;
  const auto cell_of = [n_t](std::size_t j, std::size_t k) { return j * n_t + k; };

  // Destination at the terminal speed; among optima prefer the earliest
  // arrival. (Restructured from the original: skip unreached/infinite cells
  // up front so the tie-break can never consult an unset best state.)
  std::size_t best_k = n_t;
  float best_cost = kInf;
  float best_time = 0.0f;
  for (std::size_t k = 0; k < n_t; ++k) {
    const std::size_t id = cell_of(j_dest, k);
    const float c = dest_cost[id];
    if (c >= kInf) continue;
    if (best_k == n_t || c < best_cost - 1e-9f ||
        (std::abs(c - best_cost) <= 1e-9f && dest_time[id] < best_time)) {
      best_cost = c;
      best_k = k;
      best_time = dest_time[id];
    }
  }
  if (best_k == n_t) return std::nullopt;
  stats.best_cost_mah = static_cast<double>(best_cost);

  // Backtrack.
  struct RawNode {
    std::size_t i, j, k;
  };
  std::vector<RawNode> chain;
  std::size_t ci = n_layers - 1;
  std::size_t cj = j_dest;
  std::size_t ck = best_k;
  while (true) {
    chain.push_back(RawNode{ci, cj, ck});
    const std::uint32_t p = back[ci * layer_size + cell_of(cj, ck)];
    if (p == kNoPred) break;
    const bool dwell = pred_is_dwell(p);
    const std::size_t pj = pred_j(p);
    const std::size_t pk = pred_k(p);
    if (!dwell) {
      if (ci == 0) break;
      --ci;
    }
    cj = pj;
    ck = pk;
  }
  std::reverse(chain.begin(), chain.end());

  std::vector<PlanNode> nodes;
  nodes.reserve(chain.size() + n_events);
  float t = depart_f;  // chain[0] is the source state
  for (std::size_t n = 0; n < chain.size(); ++n) {
    const RawNode& r = chain[n];
    if (n > 0) {
      const RawNode& from = chain[n - 1];
      if (from.i == r.i) {
        t += dt_f;
      } else {
        const LayerEvent* e = event_at[from.i];
        if (e && e->type == LayerEvent::Type::kStopSign) t += static_cast<float>(e->dwell_s);
        t += hop_dt(from.j, r.j);
      }
    }
    PlanNode node;
    node.position_m = static_cast<double>(r.i) * ds;
    node.speed_ms = static_cast<double>(r.j) * dv;
    node.time_s = static_cast<double>(t);
    // Materialize the mandatory stop-sign dwell as an explicit node so the
    // time-domain expansion shows the standstill.
    if (n > 0 && !nodes.empty()) {
      const RawNode& prev = chain[n - 1];
      const LayerEvent* pe = event_at[prev.i];
      if (pe && pe->type == LayerEvent::Type::kStopSign && prev.i != r.i && pe->dwell_s > 0.0) {
        PlanNode wait = nodes.back();
        wait.time_s += pe->dwell_s;
        nodes.push_back(wait);
      }
    }
    nodes.push_back(node);
  }

  // Annotate cumulative *physical* charge along the plan (the solver's state
  // cost additionally carries the time-value term and penalties, which are
  // optimizer-internal).
  const double phys_idle_mah_s = ah_to_mah(as_to_ah(energy.accessory_current_a()));
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    PlanNode& cur = nodes[n];
    const PlanNode& prev = nodes[n - 1];
    const double dt = cur.time_s - prev.time_s;
    const double dist = cur.position_m - prev.position_m;
    double delta = 0.0;
    if (dist < 1e-9) {
      delta = phys_idle_mah_s * dt;  // dwell
    } else {
      const double v_mid = 0.5 * (prev.speed_ms + cur.speed_ms);
      const double a = (cur.speed_ms * cur.speed_ms - prev.speed_ms * prev.speed_ms) / (2.0 * dist);
      const double grade = route.grade_at(prev.position_m + 0.5 * dist);
      delta = ah_to_mah(
          as_to_ah(energy.current_a(MetersPerSecond(v_mid), MetersPerSecondSquared(a), grade) * dt));
    }
    cur.energy_mah = prev.energy_mah + delta;
  }

  return DpSolution{PlannedProfile(std::move(nodes)), stats};
}

}  // namespace evvo::core::detail
