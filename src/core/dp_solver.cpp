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
constexpr double kInfD = std::numeric_limits<double>::infinity();

/// Time-bin coarsening of the pre-solve whose best cost is the incumbent of
/// bound pruning. A fixed part of the algorithm, not a tuning knob: on US-25
/// trips the coarse plan costs 0-6.9% above the optimum at ~1/10 of a
/// solve.
constexpr double kIncumbentDtFactor = 16.0;

/// Time bins of a grid: the horizon in dt_s steps, both ends included.
std::size_t time_bins(double horizon_s, double dt_s) {
  return static_cast<std::size_t>(std::ceil(horizon_s / dt_s)) + 1;
}

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

/// One solve over a workspace. The constructor builds what does not depend
/// on the time-bin width (grid geometry, events, model tables, the
/// cost-to-go bound), once for every sweep; run() is one sweep on its own
/// time axis. Per layer, the live cells of each row's band are gathered into
/// a compact source list (costs, times, window membership, and packed
/// backpointers precomputed) and only those are relaxed; each destination
/// layer's bands are reset to +inf just before the kernel relaxes into it,
/// so no full-grid or full-layer clear ever happens.
class DpEngine {
 public:
  DpEngine(const DpProblem& problem, DpWorkspace& ws, DpKernel kernel);

  /// One sweep on a time axis of `dt_s` bins. With problem_.dominance_pruning
  /// set, states that cannot finish below `incumbent` are pruned (+inf:
  /// dead-end rows only). `checksum` fills DpStats::table_checksum.
  std::optional<DpSolution> run(double dt_s, double incumbent, bool checksum);

  /// The last sweep's stats, also after an infeasible sweep.
  const DpStats& stats() const { return stats_; }

 private:
  void build_model_tables();
  void build_cost_to_go();
  void set_incumbent(double incumbent);
  float keep_bound(std::size_t i, std::size_t j) const;
  void reset_state();
  bool relax_layer(std::size_t i);  // false: layer empty, solve infeasible
  void run_kernel(std::size_t i);  // relaxes layer i's source list into layer i + 1
  void set_next_bands(std::size_t i, const RelaxArgs& args);
  void reset_layer(std::size_t i);
  void store_backpointers(std::size_t i);
  std::optional<DpSolution> extract_solution();

  std::size_t cell_of(std::size_t j, std::size_t k) const { return j * n_t_ + k; }
  const BinBand* bands_of(std::size_t i) const { return ws_.bands_.data() + i * n_v_; }
  /// Time bin of a float arrival, exactly as the relaxation bins it.
  std::size_t bin_of(float arrive) const {
    const double elapsed = static_cast<double>(arrive) - problem_.depart_time.value();
    return static_cast<std::size_t>(inv_dt_ != 0.0 ? elapsed * inv_dt_ : elapsed / dt_s_);
  }
  /// Mixes layer i, whose costs, times and backpointers the one-layer tables
  /// hold, into the table checksum.
  void hash_layer(std::size_t i) {
    detail::mix_state_layer(table_hash_, i, n_v_, n_t_, ws_.cost_.data(), ws_.time_.data(),
                            ws_.back_.data(), bands_of(i));
  }

  const DpProblem& problem_;
  DpWorkspace& ws_;
  const road::Route& route_;
  const ev::EnergyModel& energy_;
  const DpResolution& res_;
  const DpKernel kernel_;

  // Grid geometry. n_t_ and dt_s_ are the running sweep's; table_bins_ is
  // the problem's own bin count, the most any sweep uses.
  std::size_t n_hops_ = 0, n_layers_ = 0, n_v_ = 0, n_t_ = 0, table_bins_ = 0;
  double ds_ = 0.0, dt_s_ = 0.0;
  std::size_t j_source_ = 0, j_dest_ = 0;
  bool checksum_ = false;

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
  /// the horizon (see the constructor); lets the vector kernel do the
  /// horizon check as a single float compare.
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

  // Bound pruning (with dominance pruning; see keep_bound()).
  double incumbent_ = kInfD;  ///< +inf: prune dead-end rows only
  double bound_slack_ = 0.0;  ///< float-rounding allowance per layer still to go

  detail::TableHasher table_hash_;  ///< with checksum: the layers hashed so far
  DpStats stats_;
};

DpEngine::DpEngine(const DpProblem& problem, DpWorkspace& ws, DpKernel kernel)
    : problem_(problem), ws_(ws), route_(*problem.route), energy_(*problem.energy),
      res_(problem.resolution), kernel_(kernel) {
  // Grid geometry. The distance step is adjusted so layers divide the route
  // length exactly.
  n_hops_ = static_cast<std::size_t>(std::max(1.0, std::round(route_.length() / res_.ds_m)));
  ds_ = route_.length() / static_cast<double>(n_hops_);
  n_layers_ = n_hops_ + 1;
  n_v_ = static_cast<std::size_t>(std::floor(route_.max_speed_limit() / res_.dv_ms)) + 1;
  table_bins_ = time_bins(res_.horizon_s, res_.dt_s);
  if (n_v_ >= (1u << 11) || table_bins_ >= (1u << 20))
    throw std::invalid_argument("solve_dp: grid too large for backpointer packing");

  // Per-layer event lookup.
  event_at_.assign(n_layers_, nullptr);
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

  use_simd_ = kernel_ != DpKernel::kScalar;

  // Exact float image of the horizon test: the relaxation checks
  // `(double)arrive - depart >= horizon`, which is monotone in the float
  // `arrive`, so it holds exactly from the smallest float that passes it.
  {
    const double depart = problem_.depart_time.value();
    const double horizon = res_.horizon_s;
    over_thresh_f_ = least_float_where(static_cast<float>(horizon + depart), [&](float a) {
      return static_cast<double>(a) - depart >= horizon;
    });
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
  if (problem_.dominance_pruning) build_cost_to_go();
}

// Fills the workspace's model tables from this solve's route, energy model
// and grid; no table depends on the time-bin width, so every sweep of the
// solve shares them. Every solve rebuilds them: the build is small next to
// the sweep, and a table cached across solves would have to key on the
// energy model's full content, which can change in place
// (set_powertrain_map).
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

// Backward time-free DP over (layer, velocity): cost_to_go_[i * n_v + j] is
// a lower bound on the cost of finishing from any state at (i, v_j), and
// +inf when no hop sequence the relaxation allows reaches the destination
// speed. It applies run_kernel's speed-limit, stop-sign and terminal rules to
// the fused hop costs and adds the stop-sign dwell charge where the gather
// does. It ignores the horizon and the signal windows, which can only remove
// or raise completions: a penalized crossing never costs less than the
// inside-window (fused) hop, as penalized_cost gives m * max(|e|, floor)
// with m > 1, e + additive with additive > 0, or +inf. Waiting in place is
// left out too, which is sound only while a dwell step costs >= 0 (checked
// in set_incumbent).
void DpEngine::build_cost_to_go() {
  std::vector<double>& ctg = ws_.cost_to_go_;
  ctg.assign(n_layers_ * n_v_, kInfD);
  ctg[(n_layers_ - 1) * n_v_ + j_dest_] = 0.0;
  for (std::size_t i = n_layers_ - 1; i-- > 0;) {
    const LayerEvent* event = event_at_[i];
    const LayerEvent* next_event = event_at_[i + 1];
    const bool is_sign = event && event->type == LayerEvent::Type::kStopSign;
    const bool next_is_sign = next_event && next_event->type == LayerEvent::Type::kStopSign;
    const bool next_is_dest = i + 1 == n_layers_ - 1;
    const double next_limit = ws_.layer_limit_[i + 1];
    const float* fused =
        ws_.grade_fused_.data() + static_cast<std::size_t>(ws_.layer_class_[i]) * n_v_ * n_v_;
    const double* after = ctg.data() + (i + 1) * n_v_;
    double* here = ctg.data() + i * n_v_;
    for (std::size_t j2 = 0; j2 < n_v_; ++j2) {
      const double v2 = static_cast<double>(j2) * res_.dv_ms;
      if (v2 > next_limit + 1e-9) continue;
      if (next_is_sign && j2 != 0) continue;
      if (next_is_dest && j2 != j_dest_) continue;
      if (after[j2] == kInfD) continue;
      for (std::uint32_t h = ws_.rev_begin_[j2]; h < ws_.rev_begin_[j2 + 1]; ++h) {
        const std::size_t j = ws_.rev_hops_[h].j_from;
        if (is_sign && j != 0) continue;
        here[j] = std::min(here[j], static_cast<double>(fused[j * n_v_ + j2]) + after[j2]);
      }
    }
    if (is_sign) here[0] += static_cast<double>(static_cast<float>(idle_mah_s_ * event->dwell_s));
  }
}

// Arms the incumbent test. The forward sweep adds costs in float, so a state
// on the optimal path can carry a few float roundings more per layer than
// its real-valued cost. bound_slack_ allows 2^-20 of the largest cost
// magnitude B in play per layer still to go. That covers one layer's
// roundings (the gather's stop-sign charge, the hop, and the threshold's own
// rounding up: under 9 * 2^-24 * B) while there are fewer than 2^20 layers,
// so the source a kept state won its cell from was kept too. B bounds
// |incumbent + slack - cost_to_go| and every cost that can pass the test:
// costs only fall by the negative fused hops (penalties, stop-sign charges
// and dwells never lower one).
void DpEngine::set_incumbent(double incumbent) {
  incumbent_ = kInfD;
  if (!(incumbent < kInfD) || !(idle_step_cost_ >= 0.0f) || n_layers_ >= (std::size_t{1} << 20))
    return;
  double ctg_max = 0.0;
  for (const double c : ws_.cost_to_go_) {
    if (c < kInfD) ctg_max = std::max(ctg_max, std::abs(c));
  }
  float hop_min = 0.0f;
  for (const float c : ws_.grade_fused_) hop_min = std::min(hop_min, c);
  const double magnitude = std::abs(incumbent) + ctg_max +
                           static_cast<double>(n_layers_) * -static_cast<double>(hop_min);
  if (!std::isfinite(magnitude)) return;
  bound_slack_ = std::ldexp(magnitude, -20);
  incumbent_ = incumbent;
}

// Largest cost a state at (layer i, v_j) may carry and be relaxed: -inf for
// a row with no way to finish, +inf without an incumbent, else the incumbent
// plus the slack still to go minus the lower bound, rounded up to a float.
float DpEngine::keep_bound(std::size_t i, std::size_t j) const {
  const double ctg = ws_.cost_to_go_[i * n_v_ + j];
  if (ctg == kInfD) return -kInf;
  if (incumbent_ == kInfD) return kInf;
  const double bound = incumbent_ + bound_slack_ * static_cast<double>(n_layers_ - i) - ctg;
  const auto rounded = static_cast<float>(bound);
  return static_cast<double>(rounded) < bound ? std::nextafterf(rounded, kInf) : rounded;
}

void DpEngine::reset_state() {
  // No grid-wide clear: each destination layer's bands are reset to +inf
  // just before it is relaxed into, nothing outside a band is read, and
  // time_/back_ are only ever read behind a finite cost, so stale contents
  // from earlier layers and solves are unreachable. A layer's costs, times
  // and backpointers are read only by its own dwell expansion, backpointer
  // copy and source gather (and the checksum), and the kernel relaxes from
  // the gathered source list, so layer i + 1 overwrites layer i: the tables
  // hold one layer and stay in cache. The destination scan finds the last
  // layer in them, extraction replays the path's times from the departure,
  // and the backtrack reads the arena. The arena is sized for the full grid
  // but filled only band by band, so only that prefix of its pages is ever
  // touched. The one-layer tables are small and value-initialized when they
  // grow: the vector fast path loads, and writes back unchanged, cells next
  // to its targets that may lie outside every band so far.
  const std::size_t layer_cells = n_v_ * std::max(n_t_, table_bins_);
  if (ws_.cost_.size() < layer_cells) {
    ws_.cost_.resize(layer_cells);
    ws_.time_.resize(layer_cells);
    ws_.back_.resize(layer_cells);
  }
  ws_.back_arena_.grow_to(n_layers_ * layer_cells);
  ws_.bands_.resize(n_layers_ * n_v_);
  ws_.back_offset_.resize(n_layers_ * n_v_);
  ws_.back_cells_ = 0;
}

std::optional<DpSolution> DpEngine::run(double dt_s, double incumbent, bool checksum) {
  dt_s_ = dt_s;
  n_t_ = time_bins(res_.horizon_s, dt_s_);
  checksum_ = checksum;
  idle_step_cost_ = static_cast<float>(idle_mah_s_ * dt_s_);
  int dt_exp = 0;
  inv_dt_ = std::frexp(dt_s_, &dt_exp) == 0.5 ? 1.0 / dt_s_ : 0.0;

  // Exact float image of the time binning. The scalar relaxation bins with
  // `(size_t)(((double)arrive - depart) * inv_dt)` (or `/ dt`), monotone in
  // the float `arrive`, so the bin is k exactly when bin_edge_[k] <= arrive
  // < bin_edge_[k + 1], each edge the smallest float that reaches it. The
  // vector kernel then bins with float compares alone, bit-identically.
  // Bin k >= 1 is reached iff the quotient is >= k; edge 0 asks for a
  // quotient >= 0 (tighter than trunc's > -1), which is only ever used as a
  // lower bound, and arrivals never precede the departure.
  if (use_simd_) {
    const double depart = problem_.depart_time.value();
    const double inv_dt = inv_dt_;
    bin_edge_.resize(n_t_ + 1);
    for (std::size_t k = 0; k <= n_t_; ++k) {
      const auto kd = static_cast<double>(k);
      bin_edge_[k] = least_float_where(static_cast<float>(depart + kd * dt_s_), [&](float a) {
        const double elapsed = static_cast<double>(a) - depart;
        return (inv_dt != 0.0 ? elapsed * inv_dt : elapsed / dt_s_) >= kd;
      });
    }
  }

  if (problem_.dominance_pruning) set_incumbent(incumbent);
  reset_state();

  // Source state at the departure time. Layer 0's bands: the source cell,
  // and all of row 0 from it when the source is standing (dwell chains).
  BinBand* bands0 = ws_.bands_.data();
  std::fill(bands0, bands0 + n_v_, BinBand{});
  bands0[j_source_] =
      BinBand{0, j_source_ == 0 ? static_cast<std::uint32_t>(n_t_) : std::uint32_t{1}};
  reset_layer(0);
  const std::size_t id = cell_of(j_source_, 0);
  ws_.cost_[id] = 0.0f;
  ws_.time_[id] = static_cast<float>(problem_.depart_time.value());
  ws_.back_[id] = kNoPred;

  table_hash_ = detail::TableHasher{};
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
  store_backpointers(n_layers_ - 1);
  if (checksum_) {
    // Layers 0 .. n - 2 were hashed just before the kernel overwrote them.
    hash_layer(n_layers_ - 1);
    stats_.table_checksum = table_hash_.value();
  }
  return extract_solution();
}

// Resets layer i's bands to +inf (no memset: +inf is not a repeated-byte
// pattern). Cells outside them keep whatever an earlier layer or solve left.
void DpEngine::reset_layer(std::size_t i) {
  const BinBand* bands = bands_of(i);
  float* cost = ws_.cost_.data();
  for (std::size_t j = 0; j < n_v_; ++j) {
    std::fill(cost + cell_of(j, bands[j].lo), cost + cell_of(j, bands[j].hi), kInf);
  }
}

// Copies layer i's backpointer bands from the one-layer table into the
// arena, one after another, and records where each row's band starts.
void DpEngine::store_backpointers(std::size_t i) {
  const BinBand* bands = bands_of(i);
  std::size_t* offset = ws_.back_offset_.data() + i * n_v_;
  std::uint32_t* arena = ws_.back_arena_.data();
  std::size_t filled = ws_.back_cells_;
  for (std::size_t j = 0; j < n_v_; ++j) {
    const std::size_t len = bands[j].hi - bands[j].lo;
    offset[j] = filled;
    std::memcpy(arena + filled, ws_.back_.data() + cell_of(j, bands[j].lo),
                len * sizeof(std::uint32_t));
    filled += len;
  }
  ws_.back_cells_ = filled;
}

bool DpEngine::relax_layer(std::size_t i) {
  const LayerEvent* event = event_at_[i];
  const bool is_sign = event && event->type == LayerEvent::Type::kStopSign;
  const bool is_signal = event && event->type == LayerEvent::Type::kSignal;
  const BinBand* bands = bands_of(i);
  float* layer_cost = ws_.cost_.data();
  float* layer_time = ws_.time_.data();
  std::uint32_t* layer_back = ws_.back_.data();

  // Dwell expansion: waiting in place at v = 0 (time bins ascending so
  // chains of waits propagate within the layer). Row 0's band runs to n_t
  // for these chains.
  for (std::size_t k = bands[0].lo; k + 1 < bands[0].hi; ++k) {
    if (layer_cost[k] >= kInf) continue;
    const float new_cost = layer_cost[k] + idle_step_cost_;
    if (new_cost < layer_cost[k + 1]) {
      layer_cost[k + 1] = new_cost;
      layer_time[k + 1] = layer_time[k] + static_cast<float>(dt_s_);
      layer_back[k + 1] = pack_pred(0, k, /*dwell=*/true);
    }
  }
  // Layer i's backpointers are final; the kernel overwrites them next.
  store_backpointers(i);

  // Source gather: one row-major scan over the layer's bands, emitting
  // compact per-source arrays (cost with the mandatory stop-sign charge
  // folded in, crossing time, window membership, packed backpointer) so the
  // relaxation below is pure sequential loads. The float additions mirror
  // the naive per-relaxation arithmetic exactly. Past the last enforced
  // window, dominated states are dropped during the same scan: continuous
  // times ascend with the bin inside a row, so a running minimum finds every
  // earlier-and-cheaper dominator. At a stop-sign layer only standstill
  // states may proceed, so the moving rows are dropped outright. Bound
  // pruning drops, before the dominance test, every state costlier than its
  // row's keep_bound (all of a row with no way to finish). A dropped state
  // and every state it could have beaten to a cell share (layer, velocity),
  // hence the bound, so no kept state ever loses a cell it would have won.
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
    const std::size_t k_lo = bands[j].lo;
    const std::size_t k_hi = bands[j].hi;
    const float* row_cost = layer_cost + j * n_t_;
    const float* row_time = layer_time + j * n_t_;
    float row_min = kInf;
    const bool prune_row = prune && j >= 1;
    const float keep = problem_.dominance_pruning ? keep_bound(i, j) : kInf;
    if (!check_windows && !is_sign) {
      // Hot variant: no dwell, no window membership; arithmetic is the
      // same `c0 + extra_f` (extra_f == 0 here) so table bits cannot move.
      for (std::size_t k = k_lo; k < k_hi; ++k) {
        const float c0 = row_cost[k];
        if (c0 >= kInf) continue;
        if (c0 > keep) {
          ++stats_.pruned_states;
          continue;
        }
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
    for (std::size_t k = k_lo; k < k_hi; ++k) {
      const float c0 = row_cost[k];
      if (c0 >= kInf) continue;
      if (c0 > keep) {
        ++stats_.pruned_states;
        continue;
      }
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
  // call. It overwrites this layer's costs, times and backpointers, so they
  // are hashed first.
  if (checksum_) hash_layer(i);
  run_kernel(i);
  return true;
}

void DpEngine::run_kernel(std::size_t i) {
  const LayerEvent* event = event_at_[i];
  const LayerEvent* next_event = event_at_[i + 1];
  const std::size_t table_base = static_cast<std::size_t>(ws_.layer_class_[i]) * n_v_ * n_v_;

  const RelaxArgs args{
      .cost = ws_.cost_.data(),
      .time = ws_.time_.data(),
      .back = ws_.back_.data(),
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
      .dt_s = dt_s_,
      .inv_dt = inv_dt_,
      .over_thresh_f = over_thresh_f_,
      .bin_edge = bin_edge_.data(),
  };
  // Lazy reset: layer i + 1's bands are cleared just before it is relaxed
  // into, and they hold every cell the kernel can write.
  set_next_bands(i, args);
  reset_layer(i + 1);
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

// Bands of layer i + 1 from layer i's gathered source list, under the
// kernel's rules: a destination row the speed-limit, stop-sign or terminal
// filter rejects gets none; otherwise its band runs from the bin of the
// earliest arrival over its hops to the bin of the latest, clipped at the
// horizon. Source times ascend within a row, and the float add and the
// binning are monotone, so each hop's arrivals bin between those of its
// row's first and last source. Row 0 runs on to n_t for the dwell chains.
void DpEngine::set_next_bands(std::size_t i, const RelaxArgs& args) {
  BinBand* next = ws_.bands_.data() + (i + 1) * n_v_;
  const std::uint32_t* row_begin = ws_.row_begin_.data();
  const float* src_time = ws_.src_time_.data();
  const double depart = problem_.depart_time.value();
  const auto n_t = static_cast<std::uint32_t>(n_t_);
  for (std::size_t j2 = 0; j2 < n_v_; ++j2) {
    next[j2] = BinBand{};
    const double v2 = static_cast<double>(j2) * res_.dv_ms;
    if (v2 > args.next_limit + 1e-9) continue;
    if (args.next_is_sign && j2 != 0) continue;
    if (args.next_is_dest && j2 != j_dest_) continue;
    float first = kInf;
    float last = -kInf;
    for (std::uint32_t h = ws_.rev_begin_[j2]; h < ws_.rev_begin_[j2 + 1]; ++h) {
      const RevHop hop = ws_.rev_hops_[h];
      const std::size_t j = hop.j_from;
      if (args.is_sign && j != 0) continue;
      if (row_begin[j] == row_begin[j + 1]) continue;
      first = std::min(first, src_time[row_begin[j]] + hop.dt);
      last = std::max(last, src_time[row_begin[j + 1] - 1] + hop.dt);
    }
    if (!(first < kInf) || static_cast<double>(first) - depart >= res_.horizon_s) continue;
    const auto lo = static_cast<std::uint32_t>(bin_of(first));
    const std::uint32_t hi =
        j2 == 0 || static_cast<double>(last) - depart >= res_.horizon_s
            ? n_t
            : std::min(static_cast<std::uint32_t>(bin_of(last) + 1), n_t);
    next[j2] = BinBand{lo, hi};
  }
}

std::optional<DpSolution> DpEngine::extract_solution() {
  // The duration of the hop j -> j2, as the relaxation added it. The
  // backtrack follows relaxed hops only, so the lookup always succeeds.
  const auto hop_dt = [this](std::size_t j, std::size_t j2) {
    for (std::uint32_t h = ws_.rev_begin_[j2]; h < ws_.rev_begin_[j2 + 1]; ++h) {
      if (ws_.rev_hops_[h].j_from == j) return ws_.rev_hops_[h].dt;
    }
    throw std::logic_error("solve_dp: backtrack followed a hop the grid does not have");
  };
  const auto back_at = [this](std::size_t i, std::size_t j, std::size_t k) {
    const std::size_t row = i * n_v_ + j;
    return ws_.back_arena_[ws_.back_offset_[row] + k - ws_.bands_[row].lo];
  };
  return detail::extract_dp_solution(
      route_, energy_, event_at_, problem_.events.size(), ds_, res_.dv_ms, n_layers_, n_t_,
      j_dest_, bands_of(n_layers_ - 1)[j_dest_], stats_, ws_.cost_.data(), ws_.time_.data(),
      back_at, static_cast<float>(problem_.depart_time.value()), static_cast<float>(dt_s_),
      hop_dt);
}

}  // namespace detail

namespace {

/// A solve: one sweep, bounded with pruning on by `incumbent` (by default
/// the best cost of the same problem on a kIncumbentDtFactor times coarser
/// time axis, solved first on the same workspace). The sweep is repeated
/// without an incumbent when its result costs more than the incumbent, where
/// it may differ from the unpruned plan, or lies within 1 of zero, where the
/// destination scan's 1e-9 tie tolerance exceeds half a float ulp. The
/// returned work counters cover every sweep.
std::optional<DpSolution> solve_on(const DpProblem& problem, DpWorkspace& ws,
                                   detail::DpKernel kernel, std::optional<double> incumbent) {
  problem.validate();
  static telemetry::Histogram& cold_hist = telemetry::histogram("dp.solve_cold_ns");
  static telemetry::Counter& fallback_ctr = telemetry::counter("dp.bound_fallbacks");
  const telemetry::TraceSpan solve_span(cold_hist, "dp.solve_cold");

  // The model tables and the cost-to-go bound do not depend on the time-bin
  // width, so one engine builds them once for every sweep. It also sizes the
  // state tables for the problem's own grid in every sweep, so a fresh
  // workspace allocates them once: a smaller allocation freed right away
  // would raise glibc's dynamic mmap threshold and keep later frees in the
  // heap.
  detail::DpEngine engine(problem, ws, kernel);
  DpStats work;
  const auto sweep = [&](double dt_s, double ub, bool checksum) {
    std::optional<DpSolution> solution = engine.run(dt_s, ub, checksum);
    work.relaxations += engine.stats().relaxations;
    work.frontier_states += engine.stats().frontier_states;
    work.pruned_states += engine.stats().pruned_states;
    return solution;
  };

  const double dt_s = problem.resolution.dt_s;
  if (problem.dominance_pruning && !incumbent) {
    const std::optional<DpSolution> plan = sweep(dt_s * kIncumbentDtFactor, kInfD, false);
    incumbent = plan ? plan->stats.best_cost_mah : kInfD;
  }
  const double ub = incumbent.value_or(kInfD);
  std::optional<DpSolution> solution = sweep(dt_s, ub, problem.checksum_tables);
  if (ub < kInfD && !(solution && solution->stats.best_cost_mah <= ub &&
                      std::abs(solution->stats.best_cost_mah) >= 1.0)) {
    fallback_ctr.add(1);
    solution = sweep(dt_s, kInfD, problem.checksum_tables);
  }
  if (solution) {
    solution->stats.relaxations = work.relaxations;
    solution->stats.frontier_states = work.frontier_states;
    solution->stats.pruned_states = work.pruned_states;
  }
  return solution;
}

}  // namespace

std::optional<DpSolution> solve_dp(const DpProblem& problem) {
  DpWorkspace workspace;
  return solve_dp(problem, workspace);
}

std::optional<DpSolution> solve_dp(const DpProblem& problem, DpWorkspace& workspace) {
  return solve_on(problem, workspace, best_kernel(), std::nullopt);
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
  return solve_on(problem, workspace, kernel, std::nullopt);
}

std::optional<DpSolution> solve_dp_with_incumbent(const DpProblem& problem,
                                                  DpWorkspace& workspace, double incumbent) {
  return solve_on(problem, workspace, best_kernel(), incumbent);
}

}  // namespace detail

}  // namespace evvo::core
