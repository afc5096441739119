// Portable SIMD kernel layer: the only file in the tree allowed to touch
// vendor intrinsics (the `raw-intrinsics` lint rule bans them everywhere
// else). Backends: AVX2 (8 float / 4 double lanes), SSE2 (4 / 2), NEON on
// AArch64 (4 / 2), and a scalar fallback (1 / 1) used when EVVO_SIMD is OFF
// or the target has no supported vector ISA. Each translation unit gets the
// backend its own compile flags select, so kernels written against this API
// compile unchanged on every backend.
//
// Everything below lives in an inline namespace named after the backend
// (evvo::common::simd::avx2, ::sse2, ::neon, ::scalar). Code spells the plain
// evvo::common::simd names, but the mangled symbols carry the ISA, so a TU
// built with -mavx2 (core/dp_relax_avx2.cpp) can sit in one binary next to
// baseline TUs without an ODR clash: the linker can never hand a baseline
// caller an AVX2 copy of an inline function, or the reverse.
//
// Bit-identity contract (what makes SIMD-on vs scalar solves comparable
// bit-for-bit in the DP solver):
//  - Lane arithmetic (+, -, *, /, sqrt, float<->double conversion, truncating
//    double->int32) uses the IEEE-754 instructions, which produce exactly the
//    scalar result per lane. No fused-multiply-add is ever emitted: kernels
//    spell products and sums separately and the build compiles with
//    -ffp-contract=off (see the top-level CMakeLists).
//  - min_std/max_std replicate std::min/std::max *operand ordering*, not the
//    machine min/max instruction semantics: std::min(a, b) returns a when the
//    operands compare equal (e.g. -0.0 vs +0.0), so the lane-wise form is
//    select(b < a, b, a). This keeps even zero signs identical to scalar code.
//
// NaN handling: kernels must keep NaNs out of comparisons they rely on
// (masked lanes may hold NaN transients - e.g. sqrt of a negative radicand -
// only if a later select discards them).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(EVVO_SIMD_ENABLED)
#if defined(__AVX2__)
#define EVVO_SIMD_BACKEND_AVX2 1
#define EVVO_SIMD_ISA avx2
#include <immintrin.h>
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define EVVO_SIMD_BACKEND_SSE2 1
#define EVVO_SIMD_ISA sse2
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define EVVO_SIMD_BACKEND_NEON 1
#define EVVO_SIMD_ISA neon
#include <arm_neon.h>
#else
#define EVVO_SIMD_BACKEND_SCALAR 1
#define EVVO_SIMD_ISA scalar
#endif
#else
#define EVVO_SIMD_BACKEND_SCALAR 1
#define EVVO_SIMD_ISA scalar
#endif

namespace evvo::common::simd {
inline namespace EVVO_SIMD_ISA {

#if defined(EVVO_SIMD_BACKEND_AVX2)
inline constexpr const char* kBackendName = "avx2";
#elif defined(EVVO_SIMD_BACKEND_SSE2)
inline constexpr const char* kBackendName = "sse2";
#elif defined(EVVO_SIMD_BACKEND_NEON)
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr const char* kBackendName = "scalar";
#endif

// ---------------------------------------------------------------------------
// AVX2: 8 x float, 4 x double
// ---------------------------------------------------------------------------
#if defined(EVVO_SIMD_BACKEND_AVX2)

struct MaskF {
  __m256 m;
};
struct MaskD {
  __m256d m;
};

struct VecF {
  static constexpr std::size_t kWidth = 8;
  __m256 v;

  static VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }

  friend VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
};

struct VecD {
  static constexpr std::size_t kWidth = 4;
  __m256d v;

  static VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
};

struct VecI32 {
  static constexpr std::size_t kWidth = 8;
  __m256i v;
  static VecI32 load(const std::int32_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::int32_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

inline MaskF cmp_lt(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)}; }
inline MaskF cmp_ge(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)}; }
inline MaskD cmp_ge(VecD a, VecD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
inline MaskD cmp_lt(VecD a, VecD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }

inline VecF select(MaskF m, VecF if_true, VecF if_false) {
  return {_mm256_blendv_ps(if_false.v, if_true.v, m.m)};
}
inline VecD select(MaskD m, VecD if_true, VecD if_false) {
  return {_mm256_blendv_pd(if_false.v, if_true.v, m.m)};
}
inline VecI32 select(MaskF m, VecI32 if_true, VecI32 if_false) {
  return {_mm256_blendv_epi8(if_false.v, if_true.v, _mm256_castps_si256(m.m))};
}

inline int movemask(MaskF m) { return _mm256_movemask_ps(m.m); }
inline int movemask(MaskD m) { return _mm256_movemask_pd(m.m); }

/// Bitwise mask combinators. mask_andnot(a, b) is a & ~b (NOT the andnot
/// instruction's operand order, which negates the first operand).
inline MaskF mask_and(MaskF a, MaskF b) { return {_mm256_and_ps(a.m, b.m)}; }
inline MaskF mask_andnot(MaskF a, MaskF b) { return {_mm256_andnot_ps(b.m, a.m)}; }

inline VecD widen_low(VecF x) { return {_mm256_cvtps_pd(_mm256_castps256_ps128(x.v))}; }
inline VecD widen_high(VecF x) { return {_mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1))}; }

/// Truncating double -> int32 (the `(std::size_t)double` cast per lane, for
/// in-range nonnegative values). Writes VecD::kWidth lanes.
inline void trunc_store_i32(VecD x, std::int32_t* p) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(x.v));
}

inline VecD sqrt(VecD a) { return {_mm256_sqrt_pd(a.v)}; }

/// Round to nearest, ties to even (std::nearbyint under the default rounding
/// mode), per lane.
inline VecD nearbyint(VecD a) {
  return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}

/// 2^k for integral-valued lanes with |k| <= 1022: build the IEEE-754 double
/// (k + bias) << 52 directly in the exponent field.
inline VecD pow2i(VecD k) {
  const __m128i k32 = _mm256_cvttpd_epi32(k.v);  // exact: lanes are integral
  __m256i k64 = _mm256_cvtepi32_epi64(k32);
  k64 = _mm256_add_epi64(k64, _mm256_set1_epi64x(1023));
  return {_mm256_castsi256_pd(_mm256_slli_epi64(k64, 52))};
}

// ---------------------------------------------------------------------------
// SSE2: 4 x float, 2 x double
// ---------------------------------------------------------------------------
#elif defined(EVVO_SIMD_BACKEND_SSE2)

struct MaskF {
  __m128 m;
};
struct MaskD {
  __m128d m;
};

struct VecF {
  static constexpr std::size_t kWidth = 4;
  __m128 v;

  static VecF load(const float* p) { return {_mm_loadu_ps(p)}; }
  static VecF broadcast(float x) { return {_mm_set1_ps(x)}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }

  friend VecF operator+(VecF a, VecF b) { return {_mm_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm_mul_ps(a.v, b.v)}; }
};

struct VecD {
  static constexpr std::size_t kWidth = 2;
  __m128d v;

  static VecD load(const double* p) { return {_mm_loadu_pd(p)}; }
  static VecD broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }
};

struct VecI32 {
  static constexpr std::size_t kWidth = 4;
  __m128i v;
  static VecI32 load(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(std::int32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
};

inline MaskF cmp_lt(VecF a, VecF b) { return {_mm_cmplt_ps(a.v, b.v)}; }
inline MaskF cmp_ge(VecF a, VecF b) { return {_mm_cmpge_ps(a.v, b.v)}; }
inline MaskD cmp_ge(VecD a, VecD b) { return {_mm_cmpge_pd(a.v, b.v)}; }
inline MaskD cmp_lt(VecD a, VecD b) { return {_mm_cmplt_pd(a.v, b.v)}; }

inline VecF select(MaskF m, VecF if_true, VecF if_false) {
  return {_mm_or_ps(_mm_and_ps(m.m, if_true.v), _mm_andnot_ps(m.m, if_false.v))};
}
inline VecD select(MaskD m, VecD if_true, VecD if_false) {
  return {_mm_or_pd(_mm_and_pd(m.m, if_true.v), _mm_andnot_pd(m.m, if_false.v))};
}
inline VecI32 select(MaskF m, VecI32 if_true, VecI32 if_false) {
  const __m128i mi = _mm_castps_si128(m.m);
  return {_mm_or_si128(_mm_and_si128(mi, if_true.v), _mm_andnot_si128(mi, if_false.v))};
}

inline int movemask(MaskF m) { return _mm_movemask_ps(m.m); }
inline int movemask(MaskD m) { return _mm_movemask_pd(m.m); }

/// Bitwise mask combinators; mask_andnot(a, b) is a & ~b.
inline MaskF mask_and(MaskF a, MaskF b) { return {_mm_and_ps(a.m, b.m)}; }
inline MaskF mask_andnot(MaskF a, MaskF b) { return {_mm_andnot_ps(b.m, a.m)}; }

inline VecD widen_low(VecF x) { return {_mm_cvtps_pd(x.v)}; }
inline VecD widen_high(VecF x) {
  return {_mm_cvtps_pd(_mm_movehl_ps(x.v, x.v))};
}

inline void trunc_store_i32(VecD x, std::int32_t* p) {
  const __m128i k = _mm_cvttpd_epi32(x.v);  // lanes 0..1 valid
  p[0] = _mm_cvtsi128_si32(k);
  p[1] = _mm_cvtsi128_si32(_mm_shuffle_epi32(k, 1));
}

inline VecD sqrt(VecD a) { return {_mm_sqrt_pd(a.v)}; }

/// Round to nearest, ties to even. SSE2 lacks roundpd; cvtpd_epi32 rounds per
/// MXCSR (nearest-even by default) and is exact for |x| < 2^31 - far beyond
/// the clamped exp() argument range this is used for.
inline VecD nearbyint(VecD a) { return {_mm_cvtepi32_pd(_mm_cvtpd_epi32(a.v))}; }

/// 2^k for integral-valued lanes with |k| <= 1022 (exponent-field construction).
inline VecD pow2i(VecD k) {
  alignas(16) double lanes[VecD::kWidth];
  _mm_store_pd(lanes, k.v);
  for (double& l : lanes)
    l = std::bit_cast<double>((static_cast<std::int64_t>(l) + 1023) << 52);
  return {_mm_load_pd(lanes)};
}

// ---------------------------------------------------------------------------
// NEON (AArch64): 4 x float, 2 x double
// ---------------------------------------------------------------------------
#elif defined(EVVO_SIMD_BACKEND_NEON)

struct MaskF {
  uint32x4_t m;
};
struct MaskD {
  uint64x2_t m;
};

struct VecF {
  static constexpr std::size_t kWidth = 4;
  float32x4_t v;

  static VecF load(const float* p) { return {vld1q_f32(p)}; }
  static VecF broadcast(float x) { return {vdupq_n_f32(x)}; }
  void store(float* p) const { vst1q_f32(p, v); }

  friend VecF operator+(VecF a, VecF b) { return {vaddq_f32(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {vsubq_f32(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {vmulq_f32(a.v, b.v)}; }
};

struct VecD {
  static constexpr std::size_t kWidth = 2;
  float64x2_t v;

  static VecD load(const double* p) { return {vld1q_f64(p)}; }
  static VecD broadcast(double x) { return {vdupq_n_f64(x)}; }
  void store(double* p) const { vst1q_f64(p, v); }

  friend VecD operator+(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }
};

struct VecI32 {
  static constexpr std::size_t kWidth = 4;
  int32x4_t v;
  static VecI32 load(const std::int32_t* p) { return {vld1q_s32(p)}; }
  void store(std::int32_t* p) const { vst1q_s32(p, v); }
};

inline MaskF cmp_lt(VecF a, VecF b) { return {vcltq_f32(a.v, b.v)}; }
inline MaskF cmp_ge(VecF a, VecF b) { return {vcgeq_f32(a.v, b.v)}; }
inline MaskD cmp_ge(VecD a, VecD b) { return {vcgeq_f64(a.v, b.v)}; }
inline MaskD cmp_lt(VecD a, VecD b) { return {vcltq_f64(a.v, b.v)}; }

inline VecF select(MaskF m, VecF if_true, VecF if_false) {
  return {vbslq_f32(m.m, if_true.v, if_false.v)};
}
inline VecD select(MaskD m, VecD if_true, VecD if_false) {
  return {vbslq_f64(m.m, if_true.v, if_false.v)};
}
inline VecI32 select(MaskF m, VecI32 if_true, VecI32 if_false) {
  return {vbslq_s32(m.m, if_true.v, if_false.v)};
}

inline int movemask(MaskF m) {
  int bits = 0;
  if (vgetq_lane_u32(m.m, 0)) bits |= 1;
  if (vgetq_lane_u32(m.m, 1)) bits |= 2;
  if (vgetq_lane_u32(m.m, 2)) bits |= 4;
  if (vgetq_lane_u32(m.m, 3)) bits |= 8;
  return bits;
}
inline int movemask(MaskD m) {
  int bits = 0;
  if (vgetq_lane_u64(m.m, 0)) bits |= 1;
  if (vgetq_lane_u64(m.m, 1)) bits |= 2;
  return bits;
}

/// Bitwise mask combinators; mask_andnot(a, b) is a & ~b (vbic operand order).
inline MaskF mask_and(MaskF a, MaskF b) { return {vandq_u32(a.m, b.m)}; }
inline MaskF mask_andnot(MaskF a, MaskF b) { return {vbicq_u32(a.m, b.m)}; }

inline VecD widen_low(VecF x) { return {vcvt_f64_f32(vget_low_f32(x.v))}; }
inline VecD widen_high(VecF x) { return {vcvt_f64_f32(vget_high_f32(x.v))}; }

inline void trunc_store_i32(VecD x, std::int32_t* p) {
  p[0] = static_cast<std::int32_t>(vgetq_lane_f64(x.v, 0));
  p[1] = static_cast<std::int32_t>(vgetq_lane_f64(x.v, 1));
}

inline VecD sqrt(VecD a) { return {vsqrtq_f64(a.v)}; }

/// Round to nearest, ties to even (frintn).
inline VecD nearbyint(VecD a) { return {vrndnq_f64(a.v)}; }

/// 2^k for integral-valued lanes with |k| <= 1022 (exponent-field construction).
inline VecD pow2i(VecD k) {
  int64x2_t k64 = vcvtq_s64_f64(k.v);  // truncation is exact: lanes are integral
  k64 = vaddq_s64(k64, vdupq_n_s64(1023));
  return {vreinterpretq_f64_s64(vshlq_n_s64(k64, 52))};
}

// ---------------------------------------------------------------------------
// Scalar fallback: 1 x float, 1 x double (lane ops are the plain scalar ops,
// so kernels written against this API degrade to the original scalar code).
// ---------------------------------------------------------------------------
#else

struct MaskF {
  bool m;
};
struct MaskD {
  bool m;
};

struct VecF {
  static constexpr std::size_t kWidth = 1;
  float v;

  static VecF load(const float* p) { return {*p}; }
  static VecF broadcast(float x) { return {x}; }
  void store(float* p) const { *p = v; }

  friend VecF operator+(VecF a, VecF b) { return {a.v + b.v}; }
  friend VecF operator-(VecF a, VecF b) { return {a.v - b.v}; }
  friend VecF operator*(VecF a, VecF b) { return {a.v * b.v}; }
};

struct VecD {
  static constexpr std::size_t kWidth = 1;
  double v;

  static VecD load(const double* p) { return {*p}; }
  static VecD broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }

  friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }
  friend VecD operator/(VecD a, VecD b) { return {a.v / b.v}; }
};

struct VecI32 {
  static constexpr std::size_t kWidth = 1;
  std::int32_t v;
  static VecI32 load(const std::int32_t* p) { return {*p}; }
  void store(std::int32_t* p) const { *p = v; }
};

inline MaskF cmp_lt(VecF a, VecF b) { return {a.v < b.v}; }
inline MaskF cmp_ge(VecF a, VecF b) { return {a.v >= b.v}; }
inline MaskD cmp_ge(VecD a, VecD b) { return {a.v >= b.v}; }
inline MaskD cmp_lt(VecD a, VecD b) { return {a.v < b.v}; }

inline VecF select(MaskF m, VecF if_true, VecF if_false) { return m.m ? if_true : if_false; }
inline VecD select(MaskD m, VecD if_true, VecD if_false) { return m.m ? if_true : if_false; }
inline VecI32 select(MaskF m, VecI32 if_true, VecI32 if_false) {
  return m.m ? if_true : if_false;
}

inline int movemask(MaskF m) { return m.m ? 1 : 0; }
inline int movemask(MaskD m) { return m.m ? 1 : 0; }

/// Bitwise mask combinators; mask_andnot(a, b) is a & ~b.
inline MaskF mask_and(MaskF a, MaskF b) { return {a.m && b.m}; }
inline MaskF mask_andnot(MaskF a, MaskF b) { return {a.m && !b.m}; }

inline VecD widen_low(VecF x) { return {static_cast<double>(x.v)}; }
/// Width 1 has no high half; defined (as the sole lane) so generic kernels
/// compile, but kernels must consume it only when VecF::kWidth > 1.
inline VecD widen_high(VecF x) { return {static_cast<double>(x.v)}; }

inline void trunc_store_i32(VecD x, std::int32_t* p) {
  *p = static_cast<std::int32_t>(x.v);
}

inline VecD sqrt(VecD a) { return {std::sqrt(a.v)}; }

/// Round to nearest, ties to even (default rounding mode assumed, as
/// everywhere in the tree).
inline VecD nearbyint(VecD a) { return {std::nearbyint(a.v)}; }

/// 2^k for an integral-valued lane with |k| <= 1022 (exponent-field
/// construction, matching the vector backends bit-for-bit).
inline VecD pow2i(VecD k) {
  return {std::bit_cast<double>((static_cast<std::int64_t>(k.v) + 1023) << 52)};
}

#endif

/// True when the compiled backend has real vector lanes. Kernels with a
/// hand-kept scalar twin (the DP relaxation) use this to skip the vector path
/// entirely on the scalar backend.
inline constexpr bool kHasSimd = VecF::kWidth > 1;

/// std::min/std::max operand-order semantics per lane (NOT minps/minpd
/// semantics): std::min(a, b) == (b < a) ? b : a, so ties - including
/// -0.0/+0.0 - resolve to the FIRST operand, exactly as scalar code does.
inline VecD min_std(VecD a, VecD b) { return select(cmp_lt(b, a), b, a); }
inline VecD max_std(VecD a, VecD b) { return select(cmp_lt(a, b), b, a); }

/// Horizontal sum in ascending-lane order (deterministic for a given
/// backend; lane count differs across backends, so cross-backend sums may
/// round differently - fine for the learn/ kernels, never used where
/// bit-identity is promised).
inline double hsum(VecD a) {
  double lanes[VecD::kWidth];
  a.store(lanes);
  double s = lanes[0];
  for (std::size_t l = 1; l < VecD::kWidth; ++l) s += lanes[l];
  return s;
}

/// exp() per lane, Cephes-style: split x = k*ln2 + r with k = nearbyint(
/// x*log2(e)) and |r| <= ln2/2, evaluate exp(r) as the Cephes rational
/// P/Q approximant, and scale by 2^k built straight into the exponent field.
/// Accuracy is ~1 ulp relative - NOT promised equal to std::exp - but every
/// operation is an IEEE lane op in a fixed order, so all backends (including
/// the width-1 scalar fallback) produce bit-identical results for the same
/// input: SIMD-on and SIMD-off builds agree exactly wherever this is used.
/// Arguments are clamped to [-708, 708]; beyond that exp over/underflows
/// double anyway and the callers (sigmoid) have long since saturated.
inline VecD exp(VecD x) {
  x = min_std(max_std(x, VecD::broadcast(-708.0)), VecD::broadcast(708.0));
  const VecD k = nearbyint(x * VecD::broadcast(1.4426950408889634073599));  // log2(e)
  // r = x - k*ln2 in two steps (Cody-Waite): ln2 = C1 + C2 exactly.
  VecD r = x - k * VecD::broadcast(6.93145751953125e-1);
  r = r - k * VecD::broadcast(1.42860682030941723212e-6);
  const VecD rr = r * r;
  VecD p = VecD::broadcast(1.26177193074810590878e-4);
  p = p * rr + VecD::broadcast(3.02994407707441961300e-2);
  p = p * rr + VecD::broadcast(9.99999999999999999910e-1);
  p = p * r;
  VecD q = VecD::broadcast(3.00198505138664455042e-6);
  q = q * rr + VecD::broadcast(2.52448340349684104192e-3);
  q = q * rr + VecD::broadcast(2.27265548208155028766e-1);
  q = q * rr + VecD::broadcast(2.0);
  const VecD e = p / (q - p);
  return (VecD::broadcast(1.0) + (e + e)) * pow2i(k);
}

}  // inline namespace EVVO_SIMD_ISA
}  // namespace evvo::common::simd
