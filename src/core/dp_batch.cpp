#include "core/dp_batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/dp_common.hpp"
#include "core/dp_extract.hpp"
#include "core/workspace_pool.hpp"

namespace evvo::core {

namespace {

namespace sd = common::simd;

/// Scenario lanes per chunk; the vector width so one VecF load spans the
/// whole chunk's copy of a state cell.
constexpr std::size_t kLanes = sd::VecF::kWidth;
constexpr unsigned kFullMask = (1u << kLanes) - 1u;

/// The batched state tables are a long-lived pooled arena holding kLanes
/// interleaved scenarios - kLanes times the standalone table bytes - swept
/// with scattered per-row accesses, so 4 KiB pages keep the TLB on the
/// critical path. On kernels running transparent_hugepage=madvise this hint
/// upgrades the arena to huge pages; the ephemeral per-request cold
/// workspaces stay on small pages, where the one-shot fault-time compaction
/// would not amortize. Best effort: any failure leaves plain pages behind.
inline void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (addr + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(page - 1);
  if (hi > lo) (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

constexpr float kInf = detail::kDpInf;
using detail::kNoPred;
using detail::kPruneMargin;
using detail::pack_pred;

}  // namespace

std::size_t dp_batch_lanes() { return kLanes; }

DpBatchKey DpBatchKey::of(const DpProblem& problem) {
  DpBatchKey key;
  key.route_hash = detail::hash_route(*problem.route);
  key.energy = problem.energy;
  key.ds_m = problem.resolution.ds_m;
  key.dv_ms = problem.resolution.dv_ms;
  key.dt_s = problem.resolution.dt_s;
  key.horizon_s = problem.resolution.horizon_s;
  key.penalty_mode = problem.penalty.mode;
  key.penalty_m = problem.penalty.m;
  key.penalty_additive_mah = problem.penalty.additive_mah;
  key.penalty_min_cost_mah = problem.penalty.min_cost_mah;
  key.smoothness = problem.smoothness_weight_mah_per_ms;
  key.time_weight = problem.time_weight_mah_per_s;
  key.dominance_pruning = problem.dominance_pruning;
  key.events.reserve(problem.events.size());
  for (const LayerEvent& e : problem.events) {
    key.events.push_back(EventSkeleton{e.type, e.layer, e.dwell_s, e.enforce_windows});
  }
  return key;
}

namespace detail {

/// One SoA sweep over kLanes compatible scenarios (see core/dp_batch.hpp for
/// the identity argument). The structure mirrors DpEngine pass for pass;
/// every deviation from the scalar kernel is a lane-masking device, never an
/// arithmetic one.
class DpBatchEngine {
 public:
  DpBatchEngine(std::array<const DpProblem*, kLanes> problems, DpWorkspace& ws,
                common::ThreadPool* pool)
      : problems_(problems), ws_(ws), pool_(pool), route_(*problems[0]->route),
        energy_(*problems[0]->energy), res_(problems[0]->resolution) {}

  std::array<std::optional<DpSolution>, kLanes> run();

 private:
  bool relax_layer(std::size_t i);  // false: union frontier empty, sweep over
  void relax_stripe(std::size_t i, std::size_t j2_begin, std::size_t j2_end, std::size_t stripe);
  void flush_gather_counters();

  std::array<const DpProblem*, kLanes> problems_;
  DpWorkspace& ws_;
  common::ThreadPool* pool_;
  const road::Route& route_;
  const ev::EnergyModel& energy_;
  const DpResolution& res_;

  std::size_t n_hops_ = 0, n_layers_ = 0, n_v_ = 0, n_t_ = 0, layer_size_ = 0;
  double ds_ = 0.0;
  std::array<std::size_t, kLanes> j_source_{};
  std::array<std::size_t, kLanes> j_dest_{};

  double lambda_ = 0.0, idle_mah_s_ = 0.0;
  float idle_step_cost_ = 0.0f;
  double inv_dt_ = 0.0;
  /// Per-lane exact float image of the horizon test (per-lane departures).
  alignas(64) std::array<float, kLanes> thresh_f_{};
  alignas(64) std::array<double, kLanes> depart_{};
  /// Per (layer, lane) event pointer: the skeleton (type, dwell, enforce) is
  /// identical across lanes by DpBatchKey, the window lists are not.
  std::vector<std::array<const LayerEvent*, kLanes>> event_at_;
  std::ptrdiff_t last_window_layer_ = -1;
  std::vector<float> smooth_by_diff_;

  unsigned lane_alive_ = kFullMask;
  /// Per-lane work counters, accumulated exactly where the scalar engine
  /// accumulates its scalars (gather: frontier/pruned; stripes: relaxations).
  std::array<std::uint64_t, kLanes> frontier_{};
  std::array<std::uint64_t, kLanes> pruned_{};
  std::vector<std::array<std::uint64_t, kLanes>> stripe_relax_;
  sd::VecI32 frontier_acc_{};
  sd::VecI32 pruned_acc_{};
  std::array<DpStats, kLanes> stats_{};
};

void DpBatchEngine::flush_gather_counters() {
  alignas(64) std::int32_t buf[kLanes];
  frontier_acc_.store(buf);
  for (std::size_t l = 0; l < kLanes; ++l) frontier_[l] += static_cast<std::uint32_t>(buf[l]);
  pruned_acc_.store(buf);
  for (std::size_t l = 0; l < kLanes; ++l) pruned_[l] += static_cast<std::uint32_t>(buf[l]);
  frontier_acc_ = sd::VecI32::broadcast(0);
  pruned_acc_ = sd::VecI32::broadcast(0);
}

std::array<std::optional<DpSolution>, kLanes> DpBatchEngine::run() {
  static telemetry::Histogram& sweep_hist = telemetry::histogram("dp.batch.sweep_ns");
  const telemetry::TraceSpan sweep_span(sweep_hist, "dp.batch.sweep");

  // Grid geometry: identical for every lane by DpBatchKey (same route
  // content, same resolution), computed exactly as DpEngine::run does.
  n_hops_ = static_cast<std::size_t>(std::max(1.0, std::round(route_.length() / res_.ds_m)));
  ds_ = route_.length() / static_cast<double>(n_hops_);
  n_layers_ = n_hops_ + 1;
  n_v_ = static_cast<std::size_t>(std::floor(route_.max_speed_limit() / res_.dv_ms)) + 1;
  n_t_ = static_cast<std::size_t>(std::ceil(res_.horizon_s / res_.dt_s)) + 1;
  layer_size_ = n_v_ * n_t_;
  if (n_v_ >= (1u << 11) || n_t_ >= (1u << 20))
    throw std::invalid_argument("solve_dp: grid too large for backpointer packing");

  event_at_.assign(n_layers_, {});
  last_window_layer_ = -1;
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (const LayerEvent& e : problems_[l]->events) {
      if (e.layer >= n_layers_) throw std::invalid_argument("solve_dp: event layer out of range");
      event_at_[e.layer][l] = &e;
      if (l == 0 && e.type == LayerEvent::Type::kSignal && e.enforce_windows) {
        last_window_layer_ = std::max(last_window_layer_, static_cast<std::ptrdiff_t>(e.layer));
      }
    }
  }

  lambda_ = problems_[0]->time_weight_mah_per_s;
  idle_mah_s_ = ah_to_mah(as_to_ah(energy_.accessory_current_a())) + lambda_;
  idle_step_cost_ = static_cast<float>(idle_mah_s_ * res_.dt_s);

  int dt_exp = 0;
  inv_dt_ = std::frexp(res_.dt_s, &dt_exp) == 0.5 ? 1.0 / res_.dt_s : 0.0;

  // Per-lane horizon thresholds: the scalar ulp-walk (see DpEngine::run),
  // one per departure time.
  for (std::size_t l = 0; l < kLanes; ++l) {
    const double depart = problems_[l]->depart_time.value();
    depart_[l] = depart;
    const double horizon = res_.horizon_s;
    const auto over = [&](float a) { return static_cast<double>(a) - depart >= horizon; };
    constexpr float kFInf = std::numeric_limits<float>::infinity();
    float t = static_cast<float>(horizon + depart);
    if (std::isnan(t)) t = kFInf;
    while (!over(t)) t = std::nextafterf(t, kFInf);
    for (float p = std::nextafterf(t, -kFInf); over(p); p = std::nextafterf(t, -kFInf)) t = p;
    thresh_f_[l] = t;
  }

  smooth_by_diff_.resize(n_v_);
  for (std::size_t d = 0; d < n_v_; ++d) {
    smooth_by_diff_[d] = static_cast<float>(problems_[0]->smoothness_weight_mah_per_ms *
                                            static_cast<double>(d) * res_.dv_ms);
  }

  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto snap_level = [&](double v) {
      const auto j = static_cast<std::size_t>(std::lround(v / res_.dv_ms));
      if (j >= n_v_)
        throw std::invalid_argument("solve_dp: boundary speed above the velocity grid");
      return j;
    };
    j_source_[l] = snap_level(problems_[l]->initial_speed.value());
    j_dest_[l] = snap_level(problems_[l]->final_speed.value());
  }

  ws_.ensure_model_tables(route_, energy_, res_, problems_[0]->time_weight_mah_per_s,
                          problems_[0]->smoothness_weight_mah_per_ms, ds_, n_hops_, n_layers_,
                          n_v_);

  auto& bt = ws_.batch_;
  const std::size_t need = n_layers_ * layer_size_ * kLanes;
  bt.cost.grow_to(need);
  bt.time.grow_to(need);
  bt.back.grow_to(need);
  advise_huge_pages(bt.cost.data(), need * sizeof(float));
  advise_huge_pages(bt.time.data(), need * sizeof(float));
  advise_huge_pages(bt.back.data(), need * sizeof(std::uint32_t));

  // Layer-0 seed: the full layer cleared for every lane, then each lane's
  // source cell set from its own departure (float image, as scalar).
  std::fill(bt.cost.data(), bt.cost.data() + layer_size_ * kLanes, kInf);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::size_t id = (j_source_[l] * n_t_ + 0) * kLanes + l;
    bt.cost[id] = 0.0f;
    bt.time[id] = static_cast<float>(depart_[l]);
    bt.back[id] = kNoPred;
  }

  for (std::size_t l = 0; l < kLanes; ++l) {
    stats_[l] = DpStats{};
    stats_[l].layers = n_layers_;
    stats_[l].velocity_levels = n_v_;
    stats_[l].time_bins = n_t_;
  }

  const std::size_t width =
      pool_ ? std::min<std::size_t>(pool_->thread_count(),
                                    common::ThreadPool::resolve_threads(res_.threads))
            : 1;
  stripe_relax_.assign(std::max<std::size_t>(width, 1), {});

  lane_alive_ = kFullMask;
  frontier_acc_ = sd::VecI32::broadcast(0);
  pruned_acc_ = sd::VecI32::broadcast(0);
  for (std::size_t i = 0; i + 1 < n_layers_; ++i) {
    if (!relax_layer(i)) break;
  }

  for (std::size_t l = 0; l < kLanes; ++l) {
    for (const auto& stripe : stripe_relax_) stats_[l].relaxations += stripe[l];
    stats_[l].frontier_states = frontier_[l];
    stats_[l].pruned_states = pruned_[l];
  }

  // Fleet-level work counters: the sum of what each standalone solve would
  // have pushed (a dead lane freezes with exactly its standalone partial
  // totals; see relax_layer).
  static telemetry::Counter& relax_ctr = telemetry::counter("dp.relaxations");
  static telemetry::Counter& frontier_ctr = telemetry::counter("dp.frontier_states");
  static telemetry::Counter& pruned_ctr = telemetry::counter("dp.pruned_states");
  std::uint64_t relax_total = 0, frontier_total = 0, pruned_total = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    relax_total += stats_[l].relaxations;
    frontier_total += frontier_[l];
    pruned_total += pruned_[l];
  }
  relax_ctr.add(static_cast<long>(relax_total));
  frontier_ctr.add(static_cast<long>(frontier_total));
  pruned_ctr.add(static_cast<long>(pruned_total));

  std::array<std::optional<DpSolution>, kLanes> out;
  const float* cost = bt.cost.data();
  const float* time = bt.time.data();
  const std::uint32_t* back = bt.back.data();
  for (std::size_t l = 0; l < kLanes; ++l) {
    if ((lane_alive_ & (1u << l)) == 0) continue;  // infeasible: stays nullopt
    if (problems_[l]->checksum_tables) {
      // The lane survived the whole sweep, so every cell of every layer was
      // initialized (layer 0 by the seed fill, later layers by the stripes'
      // lazy row resets) - the same argument as the standalone solver.
      stats_[l].table_checksum = detail::checksum_state_tables_strided(
          n_layers_, n_v_, n_t_, cost, time, back, kLanes, l);
    }
    std::vector<const LayerEvent*> lane_events(n_layers_, nullptr);
    for (std::size_t i = 0; i < n_layers_; ++i) lane_events[i] = event_at_[i][l];
    out[l] = detail::extract_dp_solution(
        route_, energy_, lane_events, problems_[l]->events.size(), ds_, res_.dv_ms, n_layers_,
        n_t_, layer_size_, j_dest_[l], stats_[l],
        [cost, l](std::size_t id) { return cost[id * kLanes + l]; },
        [time, l](std::size_t id) { return time[id * kLanes + l]; },
        [back, l](std::size_t id) { return back[id * kLanes + l]; });
  }
  return out;
}

bool DpBatchEngine::relax_layer(std::size_t i) {
  const std::size_t base = i * layer_size_;
  const LayerEvent* ev0 = event_at_[i][0];  // skeleton fields: any lane's copy
  const bool is_sign = ev0 && ev0->type == LayerEvent::Type::kStopSign;
  const bool is_signal = ev0 && ev0->type == LayerEvent::Type::kSignal;
  auto& bt = ws_.batch_;
  float* layer_cost = bt.cost.data() + base * kLanes;
  float* layer_time = bt.time.data() + base * kLanes;
  std::uint32_t* layer_back = bt.back.data() + base * kLanes;

  // Dwell expansion on the standstill row, all lanes per step: the +inf
  // guard of the scalar loop is subsumed by the strict-< (inf + idle == inf
  // improves nothing), and the select discards the time/back candidates of
  // non-improving lanes, so stale values behind +inf are never propagated.
  {
    const sd::VecF idle_v = sd::VecF::broadcast(idle_step_cost_);
    const sd::VecF dt_v = sd::VecF::broadcast(static_cast<float>(res_.dt_s));
    const sd::VecI32 pred_base = sd::VecI32::broadcast(0);
    (void)pred_base;
    for (std::size_t k = 0; k + 1 < n_t_; ++k) {
      float* c1 = layer_cost + (k + 1) * kLanes;
      const sd::VecF ck = sd::VecF::load(layer_cost + k * kLanes);
      const sd::VecF ck1 = sd::VecF::load(c1);
      const sd::VecF cand = ck + idle_v;
      const sd::MaskF improve = sd::cmp_lt(cand, ck1);
      if (sd::movemask(improve) == 0) continue;
      sd::select(improve, cand, ck1).store(c1);
      float* t1 = layer_time + (k + 1) * kLanes;
      const sd::VecF tk = sd::VecF::load(layer_time + k * kLanes);
      sd::select(improve, tk + dt_v, sd::VecF::load(t1)).store(t1);
      auto* b1 = reinterpret_cast<std::int32_t*>(layer_back + (k + 1) * kLanes);
      const auto pred = static_cast<std::int32_t>(pack_pred(0, k, /*dwell=*/true));
      sd::select(improve, sd::VecI32::broadcast(pred), sd::VecI32::load(b1)).store(b1);
    }
  }

  // Union source gather, (j, k)-lex order with a per-entry live-lane bitmask:
  // lane l's kept entries are exactly its standalone source list, in order.
  // Pruning state (running row minimum) is a vector lane per scenario; the
  // accumulation order and float ops per lane match the scalar scan.
  const float dwell_f = is_sign ? static_cast<float>(ev0->dwell_s) : 0.0f;
  const float extra_f = is_sign ? static_cast<float>(idle_mah_s_ * ev0->dwell_s) : 0.0f;
  const bool check_windows = is_signal && ev0->enforce_windows;
  const bool prune =
      problems_[0]->dominance_pruning && static_cast<std::ptrdiff_t>(i) > last_window_layer_;
  const std::size_t j_end = is_sign ? 1 : n_v_;
  bt.row_begin.assign(n_v_ + 1, 0);
  {
    const std::size_t cap = j_end * n_t_;
    if (bt.src_pred.size() < cap) {
      bt.src_pred.resize(cap);
      bt.src_kept.resize(cap);
      bt.src_inside.resize(cap);
      bt.src_cost.resize(cap * kLanes);
      bt.src_time.resize(cap * kLanes);
    }
  }
  const sd::VecF inf_v = sd::VecF::broadcast(kInf);
  const sd::VecF margin_v = sd::VecF::broadcast(kPruneMargin);
  const sd::VecF extra_v = sd::VecF::broadcast(extra_f);
  const sd::VecF dwell_v = sd::VecF::broadcast(dwell_f);
  const sd::VecI32 one_i = sd::VecI32::broadcast(1);
  const sd::VecI32 zero_i = sd::VecI32::broadcast(0);
  std::uint32_t n = 0;
  std::array<std::uint32_t, kLanes> lane_kept_entries{};
  for (std::size_t j = 0; j < j_end; ++j) {
    bt.row_begin[j] = n;
    sd::VecF row_min = inf_v;
    const bool prune_row = prune && j >= 1;
    for (std::size_t k = 0; k < n_t_; ++k) {
      const std::size_t cell = (j * n_t_ + k) * kLanes;
      const sd::VecF c0 = sd::VecF::load(layer_cost + cell);
      sd::MaskF kept_m = sd::cmp_lt(c0, inf_v);
      unsigned kept = static_cast<unsigned>(sd::movemask(kept_m));
      if (kept == 0) continue;
      if (prune_row) {
        const sd::MaskF pruned_m = sd::mask_and(kept_m, sd::cmp_lt(row_min + margin_v, c0));
        pruned_acc_ = pruned_acc_ + sd::select(pruned_m, one_i, zero_i);
        kept_m = sd::mask_andnot(kept_m, pruned_m);
        kept = static_cast<unsigned>(sd::movemask(kept_m));
        row_min = sd::select(kept_m, sd::min_std(row_min, c0), row_min);
        if (kept == 0) continue;
      }
      frontier_acc_ = frontier_acc_ + sd::select(kept_m, one_i, zero_i);
      bt.src_pred[n] = pack_pred(j, k, /*dwell=*/false);
      bt.src_kept[n] = kept;
      sd::select(kept_m, c0 + extra_v, inf_v).store(bt.src_cost.data() + n * kLanes);
      sd::VecF t0 = sd::VecF::load(layer_time + cell);
      if (is_sign) t0 = t0 + dwell_v;
      sd::select(kept_m, t0, inf_v).store(bt.src_time.data() + n * kLanes);
      if (check_windows) {
        std::uint32_t inside = 0;
        for (unsigned bits = kept; bits != 0; bits &= bits - 1) {
          const auto l = static_cast<unsigned>(std::countr_zero(bits));
          const double t_l = static_cast<double>(bt.src_time[n * kLanes + l]);
          if (in_any_window(event_at_[i][l]->windows, t_l)) inside |= 1u << l;
        }
        bt.src_inside[n] = inside;
      }
      for (unsigned bits = kept; bits != 0; bits &= bits - 1) {
        ++lane_kept_entries[static_cast<unsigned>(std::countr_zero(bits))];
      }
      ++n;
    }
  }
  for (std::size_t j = j_end; j <= n_v_; ++j) bt.row_begin[j] = n;
  flush_gather_counters();

  // A lane with an empty frontier can never recover (later layers are fed
  // only from here): it dies at this layer, freezing its counters exactly
  // where the standalone solver's early stop would (no stripe work happened
  // for it yet, matching the scalar return-before-stripes).
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (lane_kept_entries[l] == 0) lane_alive_ &= ~(1u << l);
  }
  if (n == 0 || lane_alive_ == 0) return false;

  const std::size_t n_stripes = std::max<std::size_t>(1, std::min(stripe_relax_.size(), n_v_));
  const auto run_stripe = [&](std::size_t s) {
    const std::size_t j2_begin = s * n_v_ / n_stripes;
    const std::size_t j2_end = (s + 1) * n_v_ / n_stripes;
    relax_stripe(i, j2_begin, j2_end, s);
  };
  if (pool_ && n_stripes > 1) {
    pool_->parallel_for(n_stripes, run_stripe);
  } else {
    for (std::size_t s = 0; s < n_stripes; ++s) run_stripe(s);
  }
  return true;
}

void DpBatchEngine::relax_stripe(std::size_t i, std::size_t j2_begin, std::size_t j2_end,
                                 std::size_t stripe) {
  using Rev = DpWorkspace::RevHop;

  const LayerEvent* ev0 = event_at_[i][0];
  const bool is_sign = ev0 && ev0->type == LayerEvent::Type::kStopSign;
  const bool is_signal = ev0 && ev0->type == LayerEvent::Type::kSignal;
  const bool check_windows = is_signal && ev0->enforce_windows;
  const LayerEvent* next_ev0 = event_at_[i + 1][0];
  const bool next_is_sign = next_ev0 && next_ev0->type == LayerEvent::Type::kStopSign;
  const bool next_is_dest = (i + 1 == n_layers_ - 1);
  const double next_limit = ws_.layer_limit_[i + 1];
  const double dt_s = res_.dt_s;
  const bool use_inv = inv_dt_ != 0.0;
  const std::size_t table_base = static_cast<std::size_t>(ws_.layer_class_[i]) * n_v_ * n_v_;
  const float* energy_table = ws_.grade_energy_.data() + table_base;
  const float* fused_table = ws_.grade_fused_.data() + table_base;

  auto& bt = ws_.batch_;
  const std::size_t next_base = (i + 1) * layer_size_ * kLanes;
  float* cost = bt.cost.data() + next_base;
  float* time = bt.time.data() + next_base;
  std::uint32_t* back = bt.back.data() + next_base;

  // Hoisted lane-wise invariants (per-lane horizon thresholds / departures).
  constexpr auto Dw = sd::VecD::kWidth;
  const sd::VecF thresh_v = sd::VecF::load(thresh_f_.data());
  const sd::VecD depart_lo = sd::VecD::load(depart_.data());
  const sd::VecD depart_hi =
      kLanes > Dw ? sd::VecD::load(depart_.data() + Dw) : depart_lo;
  const sd::VecD scale_v = sd::VecD::broadcast(use_inv ? inv_dt_ : dt_s);
  const sd::VecF zero_f = sd::VecF::broadcast(0.0f);
  // Per-lane relaxation counts, kept as a histogram over the relax bitmask (a
  // single scalar increment on the hot path) and expanded per lane once at
  // stripe end.
  std::array<std::uint32_t, std::size_t{1} << kLanes> relax_hist{};

  // Lazy reset of this stripe's destination rows, all lanes.
  std::fill(cost + j2_begin * n_t_ * kLanes, cost + j2_end * n_t_ * kLanes, kInf);

  for (std::size_t j2 = j2_begin; j2 < j2_end; ++j2) {
    const double v2 = static_cast<double>(j2) * res_.dv_ms;
    if (v2 > next_limit + 1e-9) continue;
    if (next_is_sign && j2 != 0) continue;
    // Terminal-speed constraint, per lane: the row is live only for lanes
    // whose destination level is j2 (the scalar engine skips the row
    // entirely for the others).
    unsigned row_lanes = kFullMask;
    if (next_is_dest) {
      row_lanes = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (j_dest_[l] == j2) row_lanes |= 1u << l;
      }
      if (row_lanes == 0) continue;
    }
    float* crow = cost + j2 * n_t_ * kLanes;
    float* trow = time + j2 * n_t_ * kLanes;
    std::uint32_t* brow = back + j2 * n_t_ * kLanes;
    for (std::uint32_t h = ws_.rev_begin_[j2]; h < ws_.rev_begin_[j2 + 1]; ++h) {
      const Rev hop = ws_.rev_hops_[h];
      const std::size_t j = hop.j_from;
      if (is_sign && j != 0) continue;
      const float fused = fused_table[j * n_v_ + j2];
      const float raw = energy_table[j * n_v_ + j2];
      const float lambda_dt = static_cast<float>(lambda_ * hop.dt);
      const float smooth_f = smooth_by_diff_[j2 >= j ? j2 - j : j - j2];
      // Signal-window hop costs: the penalty inputs (config, raw energy) are
      // lane-invariant, so the scalar sequence - float cast, finiteness
      // check, then the two dependent adds - runs once per membership value
      // and lanes select by their own window membership. A non-finite
      // penalized cost (hard mode, outside) removes those lanes from the
      // relaxation without counting them, matching the scalar `continue`.
      float hc_in = 0.0f, hc_out = 0.0f;
      unsigned elig_in = kFullMask, elig_out = kFullMask;
      if (check_windows) {
        hc_in = static_cast<float>(penalized_cost(problems_[0]->penalty,
                                                  static_cast<double>(raw), true));
        hc_out = static_cast<float>(penalized_cost(problems_[0]->penalty,
                                                   static_cast<double>(raw), false));
        if (std::isfinite(hc_in)) {
          hc_in += lambda_dt;
          hc_in += smooth_f;
        } else {
          elig_in = 0;
        }
        if (std::isfinite(hc_out)) {
          hc_out += lambda_dt;
          hc_out += smooth_f;
        } else {
          elig_out = 0;
        }
      }
      const sd::VecF hop_dt_v = sd::VecF::broadcast(hop.dt);
      const sd::VecF fused_v = sd::VecF::broadcast(fused);
      const sd::VecF hin_v = sd::VecF::broadcast(hc_in);
      const sd::VecF hout_v = sd::VecF::broadcast(hc_out);
      // Per-lane emulation of the scalar early `break` on over-horizon
      // sources: source times ascend within a row per lane, so a lane that
      // goes over on one of ITS OWN kept entries is over for the rest of the
      // row - row_alive drops it and the entry scan stops when no lane is
      // left.
      unsigned row_alive = row_lanes;
      const std::uint32_t row_end = bt.row_begin[j + 1];
      for (std::uint32_t s = bt.row_begin[j]; s < row_end; ++s) {
        const unsigned active = bt.src_kept[s] & row_alive;
        if (active == 0) continue;
        const sd::VecF arrive = sd::VecF::load(bt.src_time.data() + s * kLanes) + hop_dt_v;
        const auto over = static_cast<unsigned>(sd::movemask(sd::cmp_ge(arrive, thresh_v)));
        row_alive &= ~(over & active);
        unsigned relax = active & ~over;
        if (check_windows && relax != 0) {
          const std::uint32_t inside = bt.src_inside[s];
          relax &= (inside & elig_in) | (~inside & elig_out);
        }
        if (relax == 0) {
          if (row_alive == 0) break;
          continue;
        }
        const sd::MaskF relax_m = sd::mask_from_bits(relax);
        ++relax_hist[relax];
        // Per-lane time binning, the exact scalar sequence (widen to double,
        // subtract the lane's departure, multiply-or-divide, truncate). Dead
        // lanes are sanitized to 0.0f first: their would-be +inf arrivals
        // must not reach the float->int truncation (UB / poison on some
        // backends); the sanitized bins are garbage and never consulted.
        const sd::VecF arr_s = sd::select(relax_m, arrive, zero_f);
        const sd::VecD e_lo = sd::widen_low(arr_s) - depart_lo;
        const sd::VecD k_lo = use_inv ? e_lo * scale_v : e_lo / scale_v;
        sd::VecI32 k2_v;
        if constexpr (kLanes > Dw) {
          const sd::VecD e_hi = sd::widen_high(arr_s) - depart_hi;
          const sd::VecD k_hi = use_inv ? e_hi * scale_v : e_hi / scale_v;
          k2_v = sd::trunc_concat_i32(k_lo, k_hi);
        } else {
          k2_v = sd::trunc_i32(k_lo);
        }
        const sd::VecF hop_cost_v =
            check_windows ? sd::select(sd::mask_from_bits(bt.src_inside[s]), hin_v, hout_v)
                          : fused_v;
        const sd::VecF new_cost =
            sd::VecF::load(bt.src_cost.data() + s * kLanes) + hop_cost_v;
        const sd::VecI32 pred_v =
            sd::VecI32::broadcast(static_cast<std::int32_t>(bt.src_pred[s]));
        // Scatter, grouping lanes by equal destination bin: pick the first
        // unhandled lane's bin, compare-exchange every lane that binned there
        // in one masked pass (strict-<, ascending entry order - the scalar
        // tie-break), clear those lanes, repeat. Lanes write disjoint
        // (bin, lane) slots, so the grouping is pure vector efficiency and
        // the loop is exact for any bin spread; in practice lanes of one
        // entry share a source cell and one or two groups cover the entry.
        unsigned todo = relax;
        do {
          const auto f = static_cast<unsigned>(std::countr_zero(todo));
          const std::int32_t b = sd::extract_lane_i32(k2_v, f);
          const sd::MaskF eq = sd::cmp_eq(k2_v, sd::VecI32::broadcast(b));
          todo &= ~static_cast<unsigned>(sd::movemask(eq));
          float* cslot = crow + static_cast<std::size_t>(b) * kLanes;
          const sd::VecF cur = sd::VecF::load(cslot);
          const sd::MaskF improve =
              sd::mask_and(sd::cmp_lt(new_cost, cur), sd::mask_and(relax_m, eq));
          const auto imp = static_cast<unsigned>(sd::movemask(improve));
          if (imp == 0) continue;
          sd::select(improve, new_cost, cur).store(cslot);
          float* tslot = trow + static_cast<std::size_t>(b) * kLanes;
          auto* bslot =
              reinterpret_cast<std::int32_t*>(brow + static_cast<std::size_t>(b) * kLanes);
          if (imp == kFullMask) {
            arrive.store(tslot);
            pred_v.store(bslot);
          } else {
            sd::select(improve, arrive, sd::VecF::load(tslot)).store(tslot);
            sd::select(improve, pred_v, sd::VecI32::load(bslot)).store(bslot);
          }
        } while (todo != 0);
        if (row_alive == 0) break;
      }
    }
  }

  // Expand the mask histogram into per-lane relaxation counts.
  auto& lane_counts = stripe_relax_[stripe];
  for (std::size_t m = 1; m < relax_hist.size(); ++m) {
    const std::uint32_t c = relax_hist[m];
    if (c == 0) continue;
    for (unsigned bits = static_cast<unsigned>(m); bits != 0; bits &= bits - 1) {
      lane_counts[static_cast<unsigned>(std::countr_zero(bits))] += c;
    }
  }
}

}  // namespace detail

namespace {

struct BatchGroup {
  DpBatchKey key;
  std::vector<std::size_t> members;  // input indices, in input order
};

}  // namespace

std::vector<std::optional<DpSolution>> solve_dp_batch(std::span<const DpProblem> problems,
                                                      WorkspacePool& pool,
                                                      common::ThreadPool* thread_pool,
                                                      DpBatchStats* stats) {
  std::vector<std::optional<DpSolution>> out(problems.size());
  if (problems.empty()) {
    if (stats != nullptr) *stats = DpBatchStats{};
    return out;
  }
  for (const DpProblem& problem : problems) problem.validate();

  // Group by compatibility key, first-occurrence order (few groups per
  // batch, so the linear key scan beats ordering/hashing boilerplate).
  std::vector<BatchGroup> groups;
  for (std::size_t idx = 0; idx < problems.size(); ++idx) {
    DpBatchKey key = DpBatchKey::of(problems[idx]);
    bool placed = false;
    for (BatchGroup& group : groups) {
      if (group.key == key) {
        group.members.push_back(idx);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back(BatchGroup{std::move(key), {idx}});
  }

  static telemetry::Counter& groups_ctr = telemetry::counter("dp.batch.groups");
  static telemetry::Counter& lanes_ctr = telemetry::counter("dp.batch.lanes");
  static telemetry::Counter& fallback_ctr = telemetry::counter("dp.batch.fallback_lanes");
  static telemetry::Counter& slots_ctr = telemetry::counter("dp.batch.lane_slots");
  static telemetry::Histogram& group_size_hist =
      telemetry::histogram("dp.batch.group_size", telemetry::Unit::kCount);

  DpBatchStats local;
  local.groups = groups.size();
  groups_ctr.add(static_cast<long>(groups.size()));

  // One pool transaction checks out a workspace per group; the affinity tag
  // warms the matching group's model tables, the rest reuse allocations.
  std::vector<std::unique_ptr<WorkspacePool::Entry>> entries =
      pool.acquire_many(groups.front().key.route_hash, groups.size());
  const auto release_all = [&] {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (entries[g] == nullptr) continue;
      entries[g]->affinity = groups[g].key.route_hash;
      pool.release(std::move(entries[g]));
    }
  };

  try {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const BatchGroup& group = groups[g];
      DpWorkspace& ws = entries[g]->workspace;
      group_size_hist.record(static_cast<long>(group.members.size()));
      const std::size_t n_chunks = group.members.size() / kLanes;
      for (std::size_t c = 0; c < n_chunks; ++c) {
        std::array<const DpProblem*, kLanes> chunk{};
        for (std::size_t l = 0; l < kLanes; ++l) {
          chunk[l] = &problems[group.members[c * kLanes + l]];
        }
        detail::DpBatchEngine engine(chunk, ws, thread_pool);
        std::array<std::optional<DpSolution>, kLanes> results = engine.run();
        for (std::size_t l = 0; l < kLanes; ++l) {
          out[group.members[c * kLanes + l]] = std::move(results[l]);
        }
        local.batched_lanes += kLanes;
      }
      // Ragged remainder: standalone cold solves on the same workspace (the
      // cached model tables carry over - same DpBatchKey, same fingerprint).
      for (std::size_t m = n_chunks * kLanes; m < group.members.size(); ++m) {
        out[group.members[m]] = solve_dp(problems[group.members[m]], ws, thread_pool);
        ++local.fallback_lanes;
      }
      local.batched_lanes += 0;  // (chunks counted above)
      slots_ctr.add(static_cast<long>((n_chunks + (group.members.size() % kLanes != 0 ? 1 : 0)) *
                                      kLanes));
    }
  } catch (...) {
    release_all();
    throw;
  }
  release_all();

  lanes_ctr.add(static_cast<long>(local.batched_lanes));
  fallback_ctr.add(static_cast<long>(local.fallback_lanes));
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace evvo::core
