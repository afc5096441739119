// Body of the DP relaxation kernel (interface: core/dp_relax.hpp).
//
// Not an ordinary header: each kernel TU defines EVVO_RELAX_NS to its
// namespace name and includes this file exactly once, compiling the body
// against whatever common/simd.hpp backend that TU's flags select
// (dp_relax_base.cpp: the tree's baseline; dp_relax_avx2.cpp: -mavx2). The
// body follows the kernel-TU rule in dp_relax.hpp: helpers have internal
// linkage, and nothing from the standard library is called, so the only
// external or weak symbols are this namespace's relax_kernel and the
// ISA-namespaced inline functions of common/simd.hpp.
#pragma once

#ifndef EVVO_RELAX_NS
#error "define EVVO_RELAX_NS before including core/dp_relax_kernel.hpp"
#endif

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"
#include "core/dp_common.hpp"
#include "core/dp_relax.hpp"
#include "core/penalty.hpp"

namespace evvo::core::detail::EVVO_RELAX_NS {

namespace {

namespace sd = common::simd;

/// Masked compare-exchange of W consecutive cells (the vector form of the
/// scalar strict-< relaxation): each lane in `lanes` whose candidate cost
/// beats its cell takes (cost, arrival, backpointer); every other cell is
/// written back as it was, so all W cells must lie in the destination row.
inline void compare_exchange(float* cost, float* time, std::uint32_t* back, sd::MaskF lanes,
                             sd::VecF cand, sd::VecF arrive, sd::VecI32 pred) {
  const sd::VecF cur = sd::VecF::load(cost);
  const sd::MaskF take = sd::mask_and(lanes, sd::cmp_lt(cand, cur));
  sd::select(take, cand, cur).store(cost);
  sd::select(take, arrive, sd::VecF::load(time)).store(time);
  auto* back_i = reinterpret_cast<std::int32_t*>(back);
  sd::select(take, pred, sd::VecI32::load(back_i)).store(back_i);
}

}  // namespace

RelaxCounts relax_kernel(const RelaxArgs& args) {
  // Everything is copied out of `args` first: the destination rows are
  // float stores, which the compiler must otherwise assume may alias the
  // struct's float and pointer fields and reload them every iteration.
  float* const cost = args.cost;
  float* const time = args.time;
  std::uint32_t* const back = args.back;
  const std::size_t n_v = args.n_v;
  const std::size_t n_t = args.n_t;
  const std::size_t j_dest = args.j_dest;
  const double dv_ms = args.dv_ms;
  const double next_limit = args.next_limit;
  const bool next_is_sign = args.next_is_sign;
  const bool next_is_dest = args.next_is_dest;
  const bool is_sign = args.is_sign;
  const bool check_windows = args.check_windows;
  const std::uint32_t* const rev_begin = args.rev_begin;
  const RevHop* const rev_hops = args.rev_hops;
  const float* const energy_table = args.energy_table;
  const float* const fused_table = args.fused_table;
  const float* const smooth_by_diff = args.smooth_by_diff;
  const double lambda = args.lambda;
  const std::uint32_t* const row_begin = args.row_begin;
  const std::uint32_t* const src_pred = args.src_pred;
  const float* const src_cost = args.src_cost;
  const float* const src_time = args.src_time;
  const std::uint8_t* const src_inside = args.src_inside;
  const double depart = args.depart;
  const double horizon = args.horizon;
  const double dt_s = args.dt_s;
  const double inv_dt = args.inv_dt;
  const float* const bin_edge = args.bin_edge;

  std::size_t relaxations = 0;
  std::size_t simd_chunks = 0;
  std::size_t simd_lanes_used = 0;
  std::size_t fast_chunks = 0;

  // Loop invariants of the vector scan, hoisted: rows can be short, so
  // per-hop setup cost is visible. (Cheap no-ops on the scalar backend.)
  constexpr auto W = static_cast<std::uint32_t>(sd::VecF::kWidth);
  constexpr auto Dw = static_cast<std::uint32_t>(sd::VecD::kWidth);
  static_assert(W <= kMaxRelaxLanes, "the source gather pads for at most kMaxRelaxLanes");
  constexpr unsigned full = (1u << W) - 1u;
  const bool vec_path = sd::kHasSimd && args.vector && !check_windows;
  const bool fast_path = vec_path && !is_sign;
  const bool use_inv = inv_dt != 0.0;
  const sd::VecF v_thresh = sd::VecF::broadcast(args.over_thresh_f);
  const sd::VecD v_depart = sd::VecD::broadcast(depart);
  const sd::VecD v_scale = sd::VecD::broadcast(use_inv ? inv_dt : dt_s);
  float arrive_buf[W];
  float cost_buf[W];
  std::int32_t k2_buf[2 * Dw];  // == W on vector backends; 2 on scalar (dead path)

  for (std::size_t j2 = 0; j2 < n_v; ++j2) {
    const double v2 = static_cast<double>(j2) * dv_ms;
    if (v2 > next_limit + 1e-9) continue;
    if (next_is_sign && j2 != 0) continue;       // stop signs: arrive stopped
    if (next_is_dest && j2 != j_dest) continue;  // terminal speed constraint
    for (std::uint32_t h = rev_begin[j2]; h < rev_begin[j2 + 1]; ++h) {
      const RevHop hop = rev_hops[h];
      const std::size_t j = hop.j_from;
      if (is_sign && j != 0) continue;  // stop signs are left from standstill
      const float fused = fused_table[j * n_v + j2];
      const float raw = energy_table[j * n_v + j2];
      const float lambda_dt = static_cast<float>(lambda * hop.dt);
      const float smooth_f = smooth_by_diff[j2 >= j ? j2 - j : j - j2];
      float* const crow = cost + j2 * n_t;
      float* const trow = time + j2 * n_t;
      std::uint32_t* const brow = back + j2 * n_t;
      const std::uint32_t row_end = row_begin[j + 1];
      if (vec_path) {
        // Vector relaxation, W sources per step. Every arithmetic step is
        // the scalar sequence applied lane-wise (float add for the arrival,
        // the exact float image of the horizon test, float add for the
        // candidate cost), and each chunk is binned and scattered by one of
        // two routes that both reproduce the scalar strict-< relaxation in
        // ascending source order, so tie-breaking, stats, and tables match
        // the scalar scan bit for bit.
        const sd::VecF v_hop_dt = sd::VecF::broadcast(hop.dt);
        const sd::VecF v_fused = sd::VecF::broadcast(fused);
        // Whole-bin shift of the hop: a source in bin k usually lands in bin
        // k + shift or k + shift + 1. A guess only; the lanes verify it.
        const auto shift = static_cast<std::size_t>(use_inv ? static_cast<double>(hop.dt) * inv_dt
                                                            : static_cast<double>(hop.dt) / dt_s);
        for (std::uint32_t s = row_begin[j]; s < row_end; s += W) {
          const std::uint32_t n = row_end - s < W ? row_end - s : W;
          // Full-width loads are safe: the gather appended sentinels past
          // the last row, and interior rows are followed by real data.
          const sd::VecF arrive = sd::VecF::load(src_time + s) + v_hop_dt;
          const auto over = static_cast<unsigned>(sd::movemask(sd::cmp_ge(arrive, v_thresh)));
          const sd::VecF cand = sd::VecF::load(src_cost + s) + v_fused;
          ++simd_chunks;
          // Edge-table route. It applies when the chunk is full, no lane is
          // over the horizon, the sources sit in consecutive bins k0 + l
          // (same row, so packed backpointers differ by the bin alone), and
          // every lane lands in bin b + l or b + l + 1 with b = k0 + shift,
          // i.e. edge[b + l] <= arrive < edge[b + l + 2]. Lane l then
          // targets cell b + l + up_l, so two lanes can share a cell only
          // when an up lane l meets a not-up lane l + 1. Exchanging the up
          // lanes first and the rest second therefore replays the scalar
          // source order exactly. Both passes stay inside [b, b + W] of
          // destination row j2, hence the b + 1 + W <= n_t bound.
          if (fast_path && n == W && over == 0 && src_pred[s + W - 1] - src_pred[s] == W - 1) {
            const std::size_t b = (src_pred[s] & kPredBinMask) + shift;
            if (b + 1 + W <= n_t) {
              const float* edge = bin_edge + b;
              const sd::MaskF in = sd::mask_and(sd::cmp_ge(arrive, sd::VecF::load(edge)),
                                                sd::cmp_lt(arrive, sd::VecF::load(edge + 2)));
              if (static_cast<unsigned>(sd::movemask(in)) == full) {
                const sd::MaskF up = sd::cmp_ge(arrive, sd::VecF::load(edge + 1));
                const auto up_bits = static_cast<unsigned>(sd::movemask(up));
                const sd::VecI32 pred =
                    sd::VecI32::load(reinterpret_cast<const std::int32_t*>(src_pred + s));
                if (up_bits != 0) {
                  compare_exchange(crow + b + 1, trow + b + 1, brow + b + 1, up, cand, arrive,
                                   pred);
                }
                if (up_bits != full) {
                  compare_exchange(crow + b, trow + b, brow + b, sd::mask_andnot(in, up), cand,
                                   arrive, pred);
                }
                relaxations += W;
                simd_lanes_used += W;
                ++fast_chunks;
                continue;
              }
            }
          }
          // Exact route: widen-to-double subtract for the elapsed time, the
          // same *inv_dt-or-/dt binning, and a scalar scatter in source order.
          const sd::VecD e_lo = sd::widen_low(arrive) - v_depart;
          const sd::VecD e_hi = sd::widen_high(arrive) - v_depart;
          const sd::VecD k_lo = use_inv ? e_lo * v_scale : e_lo / v_scale;
          const sd::VecD k_hi = use_inv ? e_hi * v_scale : e_hi / v_scale;
          sd::trunc_store_i32(k_lo, k2_buf);
          sd::trunc_store_i32(k_hi, k2_buf + Dw);
          cand.store(cost_buf);
          arrive.store(arrive_buf);
          // Lanes beyond the row (n < W) count as stopped; processing halts
          // at the first over-horizon or out-of-row lane, exactly where the
          // scalar `break` would (source times ascend within a row).
          const unsigned valid = n == W ? full : (1u << n) - 1u;
          const unsigned stop = ((over & valid) | ~valid) & full;
          const std::uint32_t n_ok =
              stop != 0 ? static_cast<std::uint32_t>(__builtin_ctz(stop)) : W;
          for (std::uint32_t l = 0; l < n_ok; ++l) {
            const auto k2 = static_cast<std::size_t>(k2_buf[l]);
            const float new_cost = cost_buf[l];
            if (new_cost < crow[k2]) {
              crow[k2] = new_cost;
              trow[k2] = arrive_buf[l];
              brow[k2] = src_pred[s + l];
            }
          }
          relaxations += n_ok;
          simd_lanes_used += n_ok;
          if (n_ok < W) break;
        }
        continue;
      }
      for (std::uint32_t s = row_begin[j]; s < row_end; ++s) {
        const float arrive_t = src_time[s] + hop.dt;
        const double elapsed = static_cast<double>(arrive_t) - depart;
        // Source times ascend within a row, so the whole tail is over too.
        if (elapsed >= horizon) break;
        float hop_cost;
        if (check_windows) {
          // Signal crossing happens when leaving the signal's layer.
          hop_cost = static_cast<float>(
              penalized_cost(*args.penalty, static_cast<double>(raw), src_inside[s] != 0));
          if (!__builtin_isfinite(hop_cost)) continue;
          hop_cost += lambda_dt;
          hop_cost += smooth_f;
        } else {
          hop_cost = fused;
        }
        const auto k2 = static_cast<std::size_t>(inv_dt != 0.0 ? elapsed * inv_dt
                                                               : elapsed / dt_s);
        const float new_cost = src_cost[s] + hop_cost;
        ++relaxations;
        if (new_cost < crow[k2]) {
          crow[k2] = new_cost;
          trow[k2] = arrive_t;
          brow[k2] = src_pred[s];
        }
      }
    }
  }
  return RelaxCounts{relaxations, simd_chunks, simd_lanes_used, fast_chunks, W};
}

}  // namespace evvo::core::detail::EVVO_RELAX_NS
