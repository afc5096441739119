#include "core/dp_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "core/dp_common.hpp"
#include "core/dp_extract.hpp"
#include "core/dp_relax.hpp"

namespace evvo::core {

namespace {

// Packing and the pruning margin are shared with the reference solver
// (src/check) through dp_common.hpp.
using detail::kDwellFlag;
using detail::kNoPred;
using detail::kPruneMargin;
using detail::pack_pred;
using detail::pred_is_dwell;
using detail::pred_j;

constexpr float kInf = detail::kDpInf;

/// Smallest float `a` for which `holds(a)` is true, where `holds` is
/// monotone in `a` (false below a threshold, true from it on). An exact
/// ulp-walk from `seed`, a rounded guess of the threshold, so it takes a few
/// steps. Returns +inf when no finite float satisfies `holds`.
template <typename Pred>
float least_float_where(float seed, Pred holds) {
  constexpr float kFInf = std::numeric_limits<float>::infinity();
  float t = std::isnan(seed) ? kFInf : seed;
  while (t < kFInf && !holds(t)) t = std::nextafterf(t, kFInf);
  for (float p = std::nextafterf(t, -kFInf); holds(p); p = std::nextafterf(t, -kFInf)) t = p;
  return t;
}

/// The kernel solve_dp runs: the -mavx2 copy when the build has one and
/// the running CPU reports AVX2, else the
/// baseline vector kernel, else (scalar backend) the scalar scan. The CPU is
/// asked once per process.
detail::DpKernel best_kernel() {
#if defined(EVVO_DP_AVX2_KERNEL)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (avx2) return detail::DpKernel::kAvx2;
#endif
  return common::simd::kHasSimd ? detail::DpKernel::kVector : detail::DpKernel::kScalar;
}

detail::DpKernelInfo kernel_info(detail::DpKernel kernel) {
  switch (kernel) {
    case detail::DpKernel::kAvx2:
      return {kernel, "avx2", 8};
    case detail::DpKernel::kVector:
      return {kernel, common::simd::kBackendName, common::simd::VecF::kWidth};
    case detail::DpKernel::kScalar:
      break;
  }
  return {detail::DpKernel::kScalar, "scalar", 1};
}

}  // namespace

void DpResolution::validate() const {
  if (ds_m <= 0.0 || dv_ms <= 0.0 || dt_s <= 0.0 || horizon_s <= 0.0)
    throw std::invalid_argument("DpResolution: all steps must be positive");
  if (horizon_s / dt_s > 1e6) throw std::invalid_argument("DpResolution: too many time bins");
}

void DpProblem::validate() const {
  if (!route || !energy) throw std::invalid_argument("DpProblem: route and energy model required");
  if (!std::isfinite(depart_time.value()))
    throw std::invalid_argument("DpProblem: departure time must be finite");
  resolution.validate();
  penalty.validate();
}

namespace detail {

/// One solve over a workspace. Per layer, the live (velocity, time-bin)
/// cells are gathered into a compact source list (costs, times, window
/// membership, and packed backpointers precomputed) and only those are
/// relaxed; each destination layer is lazily reset to +inf just before the
/// kernel relaxes into it, so no full-grid clear ever happens.
class DpEngine {
 public:
  DpEngine(const DpProblem& problem, DpWorkspace& ws, DpKernel kernel)
      : problem_(problem), ws_(ws), route_(*problem.route),
        energy_(*problem.energy), res_(problem.resolution), kernel_(kernel) {}

  std::optional<DpSolution> run();

 private:
  void build_model_tables();
  void reset_state();
  bool relax_layer(std::size_t i);  // false: layer empty, solve infeasible
  void run_kernel(std::size_t i);  // relaxes layer i's source list into layer i + 1
  std::optional<DpSolution> extract_solution();

  std::size_t cell_of(std::size_t j, std::size_t k) const { return j * n_t_ + k; }

  const DpProblem& problem_;
  DpWorkspace& ws_;
  const road::Route& route_;
  const ev::EnergyModel& energy_;
  const DpResolution& res_;
  const DpKernel kernel_;

  // Grid geometry.
  std::size_t n_hops_ = 0, n_layers_ = 0, n_v_ = 0, n_t_ = 0, layer_size_ = 0;
  double ds_ = 0.0;
  std::size_t j_source_ = 0, j_dest_ = 0;

  double lambda_ = 0.0, idle_mah_s_ = 0.0;
  float idle_step_cost_ = 0.0f;
  /// A vector relaxation kernel runs (any kernel is bit-identical; see
  /// header).
  bool use_simd_ = false;
  /// 1 / dt_s when dt_s is a power of two (incl. the default 1.0), else 0.
  /// Multiplying by an exact power-of-two reciprocal is bit-identical to the
  /// division and far cheaper in the time-binning hot path.
  double inv_dt_ = 0.0;
  /// Smallest float arrival time whose double-precision elapsed time reaches
  /// the horizon (see run()); lets the vector kernel do the horizon check as
  /// a single float compare.
  float over_thresh_f_ = std::numeric_limits<float>::infinity();
  /// bin_edge_[k]: smallest float arrival whose time bin is >= k, for
  /// k in [0, n_t] (see run()); built only when the vector kernel runs.
  std::vector<float> bin_edge_;
  std::vector<const LayerEvent*> event_at_;
  /// Last layer whose crossing is checked against enforced windows; states
  /// strictly past it face only time-independent costs, enabling dominance
  /// pruning. -1 when no window is enforced anywhere.
  std::ptrdiff_t last_window_layer_ = -1;
  std::vector<float> smooth_by_diff_;  ///< smoothness cost per |j2 - j|

  DpStats stats_;
};

// Fills the workspace's model tables from this solve's route, energy model
// and grid. Every solve rebuilds them: the build is small next to the sweep,
// and a table cached across solves would have to key on the energy model's
// full content, which can change in place (set_powertrain_map).
void DpEngine::build_model_tables() {
  const ev::VehicleParams& vp = energy_.params();
  const double a_min = vp.min_acceleration;
  const double a_max = vp.max_acceleration;
  const double dv = res_.dv_ms;
  const auto v_mid = [dv](std::size_t j, std::size_t j2) {
    return 0.5 * (static_cast<double>(j) * dv + static_cast<double>(j2) * dv);
  };
  const auto accel = [&](std::size_t j, std::size_t j2) {
    const double v = static_cast<double>(j) * dv;
    const double v2 = static_cast<double>(j2) * dv;
    return (v2 * v2 - v * v) / (2.0 * ds_);
  };

  // Feasible hops (kinematics are layer-independent), grouped by destination
  // level with sources ascending: the order in which the gather visits
  // sources, so equal-cost ties resolve to the lowest source level.
  ws_.rev_hops_.clear();
  ws_.rev_begin_.assign(n_v_ + 1, 0);
  for (std::size_t j2 = 0; j2 < n_v_; ++j2) {
    ws_.rev_begin_[j2] = static_cast<std::uint32_t>(ws_.rev_hops_.size());
    for (std::size_t j = 0; j < n_v_; ++j) {
      const double mid = v_mid(j, j2);
      if (mid <= 1e-9) continue;  // no movement; dwells handle waiting
      const double a = accel(j, j2);
      if (a < a_min - 1e-9 || a > a_max + 1e-9) continue;
      ws_.rev_hops_.push_back(RevHop{static_cast<std::uint32_t>(j), static_cast<float>(ds_ / mid)});
    }
  }
  ws_.rev_begin_[n_v_] = static_cast<std::uint32_t>(ws_.rev_hops_.size());

  // Flat, sorted grade-class table. Few grade values exist along a route, so
  // per-class cost tables are shared by all layers of that class.
  std::vector<long> layer_key(n_hops_);
  for (std::size_t i = 0; i < n_hops_; ++i) {
    const double s_mid = (static_cast<double>(i) + 0.5) * ds_;
    layer_key[i] = std::lround(route_.grade_at(s_mid) * 1e9);
  }
  std::vector<long> classes = layer_key;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  std::vector<double> first_grade(classes.size(), 0.0);  // grade of the class's first layer
  std::vector<bool> seen(classes.size(), false);
  ws_.layer_class_.assign(n_hops_, 0);
  for (std::size_t i = 0; i < n_hops_; ++i) {
    const auto cls = static_cast<std::size_t>(
        std::lower_bound(classes.begin(), classes.end(), layer_key[i]) - classes.begin());
    ws_.layer_class_[i] = static_cast<std::uint32_t>(cls);
    if (!seen[cls]) {
      seen[cls] = true;
      first_grade[cls] = route_.grade_at((static_cast<double>(i) + 0.5) * ds_);
    }
  }

  // Transition energy [mAh] per (grade class, j, j2), plus the fused variant
  // with lambda*dt and the smoothness regularizer pre-added. The fused table
  // applies the same float-rounding sequence as the step-by-step inner loop,
  // so results are bit-identical to computing the terms per relaxation.
  const double smoothness = problem_.smoothness_weight_mah_per_ms;
  const std::size_t table_size = n_v_ * n_v_;
  ws_.grade_energy_.assign(classes.size() * table_size, kInf);
  ws_.grade_fused_.assign(classes.size() * table_size, kInf);
  for (std::size_t cls = 0; cls < classes.size(); ++cls) {
    const double grade = first_grade[cls];
    float* energy_table = ws_.grade_energy_.data() + cls * table_size;
    float* fused_table = ws_.grade_fused_.data() + cls * table_size;
    for (std::size_t j2 = 0; j2 < n_v_; ++j2) {
      for (std::uint32_t h = ws_.rev_begin_[j2]; h < ws_.rev_begin_[j2 + 1]; ++h) {
        const RevHop& hop = ws_.rev_hops_[h];
        const std::size_t j = hop.j_from;
        const auto a = static_cast<float>(accel(j, j2));
        const double mah = ah_to_mah(as_to_ah(
            energy_.current_a(MetersPerSecond(v_mid(j, j2)), MetersPerSecondSquared(a), grade) *
            hop.dt));
        const auto raw = static_cast<float>(mah);
        float fused = raw;
        fused += static_cast<float>(lambda_ * hop.dt);
        fused += static_cast<float>(
            smoothness * std::abs(static_cast<double>(j2) - static_cast<double>(j)) * dv);
        energy_table[j * n_v_ + j2] = raw;
        fused_table[j * n_v_ + j2] = fused;
      }
    }
  }

  // Per-layer speed cap (posted limit at the layer's position).
  ws_.layer_limit_.resize(n_layers_);
  for (std::size_t i = 0; i < n_layers_; ++i) {
    ws_.layer_limit_[i] = route_.speed_limit_at(static_cast<double>(i) * ds_);
  }
}

void DpEngine::reset_state() {
  // No grid-wide clear: each destination layer is reset to +inf just before
  // it is relaxed into, and time_/back_ are only ever read behind a finite
  // cost, so stale contents from earlier solves are unreachable.
  const std::size_t need = n_layers_ * layer_size_;
  ws_.cost_.grow_to(need);
  ws_.time_.grow_to(need);
  ws_.back_.grow_to(need);
}

std::optional<DpSolution> DpEngine::run() {
  static telemetry::Histogram& cold_hist = telemetry::histogram("dp.solve_cold_ns");
  const telemetry::TraceSpan solve_span(cold_hist, "dp.solve_cold");

  // Grid geometry. The distance step is adjusted so layers divide the route
  // length exactly.
  n_hops_ = static_cast<std::size_t>(std::max(1.0, std::round(route_.length() / res_.ds_m)));
  ds_ = route_.length() / static_cast<double>(n_hops_);
  n_layers_ = n_hops_ + 1;
  n_v_ = static_cast<std::size_t>(std::floor(route_.max_speed_limit() / res_.dv_ms)) + 1;
  n_t_ = static_cast<std::size_t>(std::ceil(res_.horizon_s / res_.dt_s)) + 1;
  layer_size_ = n_v_ * n_t_;
  if (n_v_ >= (1u << 11) || n_t_ >= (1u << 20))
    throw std::invalid_argument("solve_dp: grid too large for backpointer packing");

  // Per-layer event lookup.
  event_at_.assign(n_layers_, nullptr);
  last_window_layer_ = -1;
  for (const LayerEvent& e : problem_.events) {
    if (e.layer >= n_layers_) throw std::invalid_argument("solve_dp: event layer out of range");
    event_at_[e.layer] = &e;
    if (e.type == LayerEvent::Type::kSignal && e.enforce_windows) {
      last_window_layer_ = std::max(last_window_layer_, static_cast<std::ptrdiff_t>(e.layer));
    }
  }

  // Idle cost plus the explicit value of time (see DpProblem); both apply to
  // every second whether driving or waiting.
  lambda_ = problem_.time_weight_mah_per_s;
  idle_mah_s_ = ah_to_mah(as_to_ah(energy_.accessory_current_a())) + lambda_;
  idle_step_cost_ = static_cast<float>(idle_mah_s_ * res_.dt_s);

  int dt_exp = 0;
  inv_dt_ = std::frexp(res_.dt_s, &dt_exp) == 0.5 ? 1.0 / res_.dt_s : 0.0;

  use_simd_ = kernel_ != DpKernel::kScalar;

  // Exact float images of the horizon test and of the time binning. The
  // scalar relaxation checks `(double)arrive - depart >= horizon` and bins
  // with `(size_t)(((double)arrive - depart) * inv_dt)` (or `/ dt`). Both are
  // monotone in the float `arrive`, so each threshold is the smallest float
  // that reaches it: the horizon test is `arrive >= over_thresh_f_`, and the
  // bin is k exactly when bin_edge_[k] <= arrive < bin_edge_[k + 1]. The
  // vector kernel then tests and bins with float compares alone,
  // bit-identically. Bin k >= 1 is reached iff the quotient is >= k; edge 0
  // asks for a quotient >= 0 (tighter than trunc's > -1), which is only ever
  // used as a lower bound, and arrivals never precede the departure.
  {
    const double depart = problem_.depart_time.value();
    const double horizon = res_.horizon_s;
    const double dt_s = res_.dt_s;
    const double inv_dt = inv_dt_;
    over_thresh_f_ = least_float_where(static_cast<float>(horizon + depart), [&](float a) {
      return static_cast<double>(a) - depart >= horizon;
    });
    if (use_simd_) {
      bin_edge_.resize(n_t_ + 1);
      for (std::size_t k = 0; k <= n_t_; ++k) {
        const auto kd = static_cast<double>(k);
        bin_edge_[k] = least_float_where(static_cast<float>(depart + kd * dt_s), [&](float a) {
          const double elapsed = static_cast<double>(a) - depart;
          return (inv_dt != 0.0 ? elapsed * inv_dt : elapsed / dt_s) >= kd;
        });
      }
    }
  }

  smooth_by_diff_.resize(n_v_);
  for (std::size_t d = 0; d < n_v_; ++d) {
    smooth_by_diff_[d] = static_cast<float>(problem_.smoothness_weight_mah_per_ms *
                                            static_cast<double>(d) * res_.dv_ms);
  }

  // Boundary velocity levels (Eq. 7d by default; replans may start moving).
  const auto snap_level = [&](double v) {
    const auto j = static_cast<std::size_t>(std::lround(v / res_.dv_ms));
    if (j >= n_v_) throw std::invalid_argument("solve_dp: boundary speed above the velocity grid");
    return j;
  };
  j_source_ = snap_level(problem_.initial_speed.value());
  j_dest_ = snap_level(problem_.final_speed.value());

  build_model_tables();
  reset_state();

  // Source state at the departure time (layer 0 cleared in full: its source
  // scan visits every row).
  std::fill(ws_.cost_.data(), ws_.cost_.data() + layer_size_, kInf);
  const std::size_t id = cell_of(j_source_, 0);  // layer 0 base is 0
  ws_.cost_[id] = 0.0f;
  ws_.time_[id] = static_cast<float>(problem_.depart_time.value());
  ws_.back_[id] = kNoPred;

  stats_ = DpStats{};
  stats_.layers = n_layers_;
  stats_.velocity_levels = n_v_;
  stats_.time_bins = n_t_;

  bool feasible = true;
  for (std::size_t i = 0; i + 1 < n_layers_; ++i) {
    if (!relax_layer(i)) {
      feasible = false;
      break;
    }
  }

  // Fleet-level work counters (registry only, never DpStats: the stats struct
  // is part of the SIMD-vs-scalar bit-identity contract). Pushed even for
  // infeasible sweeps - the work was still done.
  static telemetry::Counter& relax_ctr = telemetry::counter("dp.relaxations");
  static telemetry::Counter& frontier_ctr = telemetry::counter("dp.frontier_states");
  static telemetry::Counter& pruned_ctr = telemetry::counter("dp.pruned_states");
  relax_ctr.add(static_cast<long>(stats_.relaxations));
  frontier_ctr.add(static_cast<long>(stats_.frontier_states));
  pruned_ctr.add(static_cast<long>(stats_.pruned_states));

  if (!feasible) return std::nullopt;
  if (problem_.checksum_tables) {
    // Every cell of every layer was initialized (layer 0 by the full fill,
    // later layers by the lazy reset before each relaxation), so the finite-cell scan
    // never reads stale cost values.
    stats_.table_checksum = detail::checksum_state_tables(
        n_layers_, n_v_, n_t_, ws_.cost_.data(), ws_.time_.data(), ws_.back_.data());
  }
  return extract_solution();
}

bool DpEngine::relax_layer(std::size_t i) {
  const std::size_t base = i * layer_size_;
  const LayerEvent* event = event_at_[i];
  const bool is_sign = event && event->type == LayerEvent::Type::kStopSign;
  const bool is_signal = event && event->type == LayerEvent::Type::kSignal;
  float* layer_cost = ws_.cost_.data() + base;
  float* layer_time = ws_.time_.data() + base;

  // Dwell expansion: waiting in place at v = 0 (time bins ascending so
  // chains of waits propagate within the layer).
  for (std::size_t k = 0; k + 1 < n_t_; ++k) {
    if (layer_cost[k] >= kInf) continue;
    const float new_cost = layer_cost[k] + idle_step_cost_;
    if (new_cost < layer_cost[k + 1]) {
      layer_cost[k + 1] = new_cost;
      layer_time[k + 1] = layer_time[k] + static_cast<float>(res_.dt_s);
      ws_.back_[base + k + 1] = pack_pred(0, k, /*dwell=*/true);
    }
  }

  // Source gather: one row-major scan over the layer's live cells, emitting
  // compact per-source arrays (cost with the mandatory stop-sign charge
  // folded in, crossing time, window membership, packed backpointer) so the
  // relaxation below is pure sequential loads. The float additions mirror
  // the naive per-relaxation arithmetic exactly. Past the last enforced
  // window, dominated states are dropped during the same scan: continuous
  // times ascend with the bin inside a row, so a running minimum finds every
  // earlier-and-cheaper dominator. At a stop-sign layer only standstill
  // states may proceed, so the moving rows are dropped outright.
  const float dwell_f = is_sign ? static_cast<float>(event->dwell_s) : 0.0f;
  const float extra_f = is_sign ? static_cast<float>(idle_mah_s_ * event->dwell_s) : 0.0f;
  const bool check_windows = is_signal && event->enforce_windows;
  const bool prune =
      problem_.dominance_pruning && static_cast<std::ptrdiff_t>(i) > last_window_layer_;
  ws_.row_begin_.assign(n_v_ + 1, 0);
  const std::size_t j_end = is_sign ? 1 : n_v_;
  // Indexed writes into capacity-sized arrays instead of push_back: the
  // four size bumps per kept state are measurable at frontier scale, and the
  // window-membership column is only consulted by the relaxation when
  // check_windows is set, so ordinary layers skip writing it entirely.
  {
    const std::size_t cap = j_end * n_t_ + kMaxRelaxLanes;
    if (ws_.src_pred_.size() < cap) {
      ws_.src_pred_.resize(cap);
      ws_.src_cost_.resize(cap);
      ws_.src_time_.resize(cap);
      ws_.src_inside_.resize(cap);
    }
  }
  std::uint32_t* const out_pred = ws_.src_pred_.data();
  float* const out_cost = ws_.src_cost_.data();
  float* const out_time = ws_.src_time_.data();
  std::uint8_t* const out_inside = ws_.src_inside_.data();
  std::uint32_t n = 0;
  for (std::size_t j = 0; j < j_end; ++j) {
    ws_.row_begin_[j] = n;
    const float* row_cost = layer_cost + j * n_t_;
    const float* row_time = layer_time + j * n_t_;
    float row_min = kInf;
    const bool prune_row = prune && j >= 1;
    if (!check_windows && !is_sign) {
      // Hot variant: no dwell, no window membership; arithmetic is the
      // same `c0 + extra_f` (extra_f == 0 here) so table bits cannot move.
      for (std::size_t k = 0; k < n_t_; ++k) {
        const float c0 = row_cost[k];
        if (c0 >= kInf) continue;
        if (prune_row) {
          if (c0 > row_min + kPruneMargin) {
            ++stats_.pruned_states;
            continue;
          }
          row_min = std::min(row_min, c0);
        }
        out_pred[n] = pack_pred(j, k, /*dwell=*/false);
        out_cost[n] = c0 + extra_f;
        out_time[n] = row_time[k];
        ++n;
      }
      continue;
    }
    for (std::size_t k = 0; k < n_t_; ++k) {
      const float c0 = row_cost[k];
      if (c0 >= kInf) continue;
      if (prune_row) {
        if (c0 > row_min + kPruneMargin) {
          ++stats_.pruned_states;
          continue;
        }
        row_min = std::min(row_min, c0);
      }
      float t0 = row_time[k];
      if (is_sign) t0 += dwell_f;  // mandatory standstill before proceeding (Eq. 7c + dwell)
      out_pred[n] = pack_pred(j, k, /*dwell=*/false);
      out_cost[n] = c0 + extra_f;
      out_time[n] = t0;
      out_inside[n] =
          check_windows ? (in_any_window(event->windows, static_cast<double>(t0)) ? 1 : 0) : 1;
      ++n;
    }
  }
  for (std::size_t j = j_end; j <= n_v_; ++j) {
    ws_.row_begin_[j] = n;
  }
  const std::size_t n_src = n;
  stats_.frontier_states += n_src;
  // An empty layer can never be recovered from (later layers are fed only
  // from here), so the solve is infeasible and the sweep stops; stopping
  // before the relaxation also keeps the next layer's rows from being read
  // uninitialized.
  if (n_src == 0) return false;

  // Sentinel padding: a vector kernel loads full-width chunks, so the last
  // row's final chunk may read up to lanes-1 entries past the list; padding
  // for the widest kernel any build compiles covers every kernel. +inf times
  // make those lanes permanently over-horizon (never scattered); row_begin_
  // is already final, so no row sees them as sources, and the frontier stats
  // above never count them.
  for (std::size_t p = 0; p + 1 < kMaxRelaxLanes; ++p) {
    out_pred[n] = 0;
    out_cost[n] = std::numeric_limits<float>::infinity();
    out_time[n] = std::numeric_limits<float>::infinity();
    out_inside[n] = 1;
    ++n;
  }

  // Gather relaxation into layer i+1, every destination row in one kernel
  // call.
  run_kernel(i);
  return true;
}

void DpEngine::run_kernel(std::size_t i) {
  const LayerEvent* event = event_at_[i];
  const LayerEvent* next_event = event_at_[i + 1];
  const std::size_t table_base = static_cast<std::size_t>(ws_.layer_class_[i]) * n_v_ * n_v_;
  const std::size_t next_base = (i + 1) * layer_size_;
  float* cost = ws_.cost_.data() + next_base;

  // Lazy reset: layer i + 1 is cleared just before it is relaxed into. (No
  // memset: +inf is not a repeated-byte pattern.)
  std::fill(cost, cost + layer_size_, kInf);

  const RelaxArgs args{
      .cost = cost,
      .time = ws_.time_.data() + next_base,
      .back = ws_.back_.data() + next_base,
      .n_v = n_v_,
      .n_t = n_t_,
      .j_dest = j_dest_,
      .dv_ms = res_.dv_ms,
      .next_limit = ws_.layer_limit_[i + 1],
      .next_is_sign = next_event && next_event->type == LayerEvent::Type::kStopSign,
      .next_is_dest = i + 1 == n_layers_ - 1,
      .is_sign = event && event->type == LayerEvent::Type::kStopSign,
      .check_windows = event && event->type == LayerEvent::Type::kSignal && event->enforce_windows,
      .vector = use_simd_,
      .rev_begin = ws_.rev_begin_.data(),
      .rev_hops = ws_.rev_hops_.data(),
      .energy_table = ws_.grade_energy_.data() + table_base,
      .fused_table = ws_.grade_fused_.data() + table_base,
      .smooth_by_diff = smooth_by_diff_.data(),
      .lambda = lambda_,
      .penalty = &problem_.penalty,
      .row_begin = ws_.row_begin_.data(),
      .src_pred = ws_.src_pred_.data(),
      .src_cost = ws_.src_cost_.data(),
      .src_time = ws_.src_time_.data(),
      .src_inside = ws_.src_inside_.data(),
      .depart = problem_.depart_time.value(),
      .horizon = res_.horizon_s,
      .dt_s = res_.dt_s,
      .inv_dt = inv_dt_,
      .over_thresh_f = over_thresh_f_,
      .bin_edge = bin_edge_.data(),
  };
#if defined(EVVO_DP_AVX2_KERNEL)
  const RelaxCounts done =
      kernel_ == DpKernel::kAvx2 ? avx2::relax_kernel(args) : base::relax_kernel(args);
#else
  const RelaxCounts done = base::relax_kernel(args);
#endif
  stats_.relaxations += done.relaxations;

  // Lane utilization = used / capacity. Local accumulation in the kernel
  // keeps its inner loop free of atomics; one add per layer lands in the
  // registry.
  if (done.simd_chunks != 0) {
    static telemetry::Counter& lanes_used_ctr = telemetry::counter("dp.simd_lanes_used");
    static telemetry::Counter& lanes_cap_ctr = telemetry::counter("dp.simd_lanes_capacity");
    static telemetry::Counter& fast_chunks_ctr = telemetry::counter("dp.relax.fast_chunks");
    lanes_used_ctr.add(static_cast<long>(done.lanes_used));
    lanes_cap_ctr.add(static_cast<long>(done.simd_chunks * done.lanes));
    fast_chunks_ctr.add(static_cast<long>(done.fast_chunks));
  }
}

std::optional<DpSolution> DpEngine::extract_solution() {
  return detail::extract_dp_solution(route_, energy_, event_at_, problem_.events.size(), ds_,
                                     res_.dv_ms, n_layers_, n_t_, layer_size_, j_dest_, stats_,
                                     ws_.cost_.data(), ws_.time_.data(), ws_.back_.data());
}

}  // namespace detail

std::optional<DpSolution> solve_dp(const DpProblem& problem) {
  DpWorkspace workspace;
  return solve_dp(problem, workspace);
}

std::optional<DpSolution> solve_dp(const DpProblem& problem, DpWorkspace& workspace) {
  problem.validate();
  detail::DpEngine engine(problem, workspace, best_kernel());
  return engine.run();
}

const char* dp_kernel_name() { return kernel_info(best_kernel()).name; }

namespace detail {

std::vector<DpKernelInfo> dp_kernels() {
  std::vector<DpKernelInfo> kernels{kernel_info(DpKernel::kScalar)};
  if (common::simd::kHasSimd) kernels.push_back(kernel_info(DpKernel::kVector));
  if (best_kernel() == DpKernel::kAvx2) kernels.push_back(kernel_info(DpKernel::kAvx2));
  return kernels;
}

std::optional<DpSolution> solve_dp_with_kernel(const DpProblem& problem, DpWorkspace& workspace,
                                               DpKernel kernel) {
  const std::vector<DpKernelInfo> kernels = dp_kernels();
  if (std::none_of(kernels.begin(), kernels.end(),
                   [kernel](const DpKernelInfo& k) { return k.kernel == kernel; }))
    throw std::invalid_argument("solve_dp_with_kernel: kernel not available on this build/CPU");
  problem.validate();
  DpEngine engine(problem, workspace, kernel);
  return engine.run();
}

}  // namespace detail

}  // namespace evvo::core
