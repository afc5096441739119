// Interface of the DP relaxation kernel: the hot loop of
// DpEngine::run_kernel (core/dp_solver.cpp) over plain pointers and
// scalars, so that one body (core/dp_relax_kernel.hpp) can be compiled once
// per instruction set and chosen at run time.
//
//  - detail::base::relax_kernel lives in dp_relax_base.cpp, built with the
//    tree's flags: SSE2 or NEON vectors, or the scalar backend when
//    EVVO_SIMD is OFF (the AVX2 backend when EVVO_SIMD_ARCH=avx2 retargets
//    the whole tree).
//  - detail::avx2::relax_kernel lives in dp_relax_avx2.cpp, built with
//    -mavx2, and exists only on x86-64 builds with EVVO_SIMD=ON and an empty
//    EVVO_SIMD_ARCH (EVVO_DP_AVX2_KERNEL is then defined for dp_solver.cpp).
//    solve_dp calls it when the running CPU reports AVX2.
//
// Every kernel is bit-identical to every other: same tables, stats and
// tie-breaking (see the SIMD notes in dp_solver.hpp).
//
// Rule for a kernel TU compiled with extra ISA flags: everything it defines
// with external linkage must sit in a namespace named after the ISA, and it
// must not touch the standard library or any other inline code of the tree
// (no std::vector, std::min, telemetry, ...). Otherwise the compiler may
// emit a weak ISA-specific copy of some shared inline function, and the
// linker may pick that copy for baseline callers, which then die with
// SIGILL on a host without the ISA. This header therefore holds only plain
// aggregates and declarations, and the kernel_symbols ctest runs nm over the
// AVX2 object to prove the rule holds.
#pragma once

#include <cstddef>
#include <cstdint>

namespace evvo::core {

struct PenaltyConfig;

namespace detail {

/// Widest vector kernel any build compiles (AVX2: 8 float lanes). The source
/// gather pads its lists by this many entries so that every kernel's
/// full-width loads stay inside them.
inline constexpr std::size_t kMaxRelaxLanes = 8;

/// One reverse hop: source velocity level and travel time over the step.
struct RevHop {
  std::uint32_t j_from = 0;
  float dt = 0.0f;
};

/// Everything one layer's relaxation reads. Destination pointers address
/// layer i + 1, whose live time-bin bands (every cell the kernel can write)
/// the caller has already reset to +inf; source arrays are the gathered,
/// sentinel-padded list of layer i.
struct RelaxArgs {
  float* cost;
  float* time;
  std::uint32_t* back;
  std::size_t n_v;
  std::size_t n_t;
  std::size_t j_dest;
  double dv_ms;
  double next_limit;     ///< posted limit at layer i + 1
  bool next_is_sign;     ///< layer i + 1 is a stop sign (arrive stopped)
  bool next_is_dest;     ///< layer i + 1 is the destination
  bool is_sign;          ///< layer i is a stop sign (leave from standstill)
  bool check_windows;    ///< layer i is a signal with enforced T_q windows
  bool vector;           ///< run the vector scan (else the scalar one)
  const std::uint32_t* rev_begin;  ///< n_v + 1 offsets into rev_hops
  const RevHop* rev_hops;
  const float* energy_table;       ///< [j][j2] transition energy of layer i's class
  const float* fused_table;        ///< [j][j2] energy + lambda*dt + smoothness
  const float* smooth_by_diff;     ///< smoothness cost per |j2 - j|
  double lambda;
  const PenaltyConfig* penalty;
  const std::uint32_t* row_begin;  ///< n_v + 1 offsets into the source list
  const std::uint32_t* src_pred;
  const float* src_cost;
  const float* src_time;
  const std::uint8_t* src_inside;
  double depart;
  double horizon;
  double dt_s;
  double inv_dt;         ///< 1 / dt_s when that is exact, else 0
  float over_thresh_f;   ///< smallest float arrival past the horizon
  const float* bin_edge; ///< n_t + 1 float bin edges (vector scan only)
};

/// Work done by one layer's relaxation.
struct RelaxCounts {
  std::size_t relaxations;
  std::size_t simd_chunks;  ///< vector iterations taken
  std::size_t lanes_used;   ///< lanes that survived the stop mask
  std::size_t fast_chunks;  ///< chunks binned by the edge table
  std::size_t lanes;        ///< vector width of the kernel
};

namespace base {
RelaxCounts relax_kernel(const RelaxArgs& args);
}  // namespace base

namespace avx2 {
RelaxCounts relax_kernel(const RelaxArgs& args);
}  // namespace avx2

}  // namespace detail
}  // namespace evvo::core
