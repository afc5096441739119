// Unit tests for the portable SIMD layer (common/simd.hpp). These pin the
// contracts the kernels lean on - scalar operand-order min/max, truncating
// int conversion, the exp approximation - on whichever backend this build
// compiled in (the same tests pass on AVX2, SSE2, NEON, and the width-1
// scalar fallback).
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace evvo::common::simd {
namespace {

constexpr std::size_t WF = VecF::kWidth;
constexpr std::size_t WD = VecD::kWidth;

std::vector<float> lanes_of(VecF v) {
  std::vector<float> out(WF);
  v.store(out.data());
  return out;
}

std::vector<double> lanes_of(VecD v) {
  std::vector<double> out(WD);
  v.store(out.data());
  return out;
}

TEST(SimdVecF, LoadStoreRoundTrip) {
  std::vector<float> in(WF);
  for (std::size_t i = 0; i < WF; ++i) in[i] = static_cast<float>(i) - 2.5f;
  EXPECT_EQ(lanes_of(VecF::load(in.data())), in);
}

TEST(SimdMinMax, StdOperandOrderOnSignedZero) {
  // std::min(+0.0, -0.0) == +0.0 (first operand on ties); min_std must match.
  const VecD pz = VecD::broadcast(+0.0);
  const VecD nz = VecD::broadcast(-0.0);
  EXPECT_FALSE(std::signbit(lanes_of(min_std(pz, nz))[0]));
  EXPECT_TRUE(std::signbit(lanes_of(min_std(nz, pz))[0]));
  EXPECT_FALSE(std::signbit(lanes_of(max_std(pz, nz))[0]));
  EXPECT_TRUE(std::signbit(lanes_of(max_std(nz, pz))[0]));
}

TEST(SimdMinMax, OrdinaryValues) {
  const VecD a = VecD::broadcast(2.0);
  const VecD b = VecD::broadcast(-3.0);
  EXPECT_EQ(lanes_of(min_std(a, b))[0], -3.0);
  EXPECT_EQ(lanes_of(max_std(a, b))[0], 2.0);
}

TEST(SimdTrunc, TruncStoreMatchesCast) {
  std::vector<double> in(WD);
  for (std::size_t i = 0; i < WD; ++i) in[i] = 2.75 + 10.5 * static_cast<double>(i);
  std::vector<std::int32_t> out(WD, 0);
  trunc_store_i32(VecD::load(in.data()), out.data());
  for (std::size_t i = 0; i < WD; ++i)
    EXPECT_EQ(out[i], static_cast<std::int32_t>(in[i])) << "lane " << i;
}

TEST(SimdHsum, AscendingLaneOrder) {
  std::vector<double> in(WD);
  for (std::size_t i = 0; i < WD; ++i) in[i] = 0.1 * static_cast<double>(i + 1);
  double expect = in[0];
  for (std::size_t i = 1; i < WD; ++i) expect += in[i];
  EXPECT_EQ(hsum(VecD::load(in.data())), expect);
}

TEST(SimdNearbyint, TiesToEven) {
  EXPECT_EQ(lanes_of(nearbyint(VecD::broadcast(0.5)))[0], 0.0);
  EXPECT_EQ(lanes_of(nearbyint(VecD::broadcast(1.5)))[0], 2.0);
  EXPECT_EQ(lanes_of(nearbyint(VecD::broadcast(-0.5)))[0], -0.0);
  EXPECT_EQ(lanes_of(nearbyint(VecD::broadcast(-2.5)))[0], -2.0);
  EXPECT_EQ(lanes_of(nearbyint(VecD::broadcast(3.2)))[0], 3.0);
}

TEST(SimdPow2i, ExponentFieldConstruction) {
  for (int k : {-1022, -52, -1, 0, 1, 52, 1022}) {
    EXPECT_EQ(lanes_of(pow2i(VecD::broadcast(static_cast<double>(k))))[0], std::ldexp(1.0, k))
        << "k=" << k;
  }
}

TEST(SimdExp, NearStdExpAndExactAtZero) {
  // exp(0) falls out exactly: k = 0, r = 0, rational term 0, scale 2^0.
  EXPECT_EQ(lanes_of(exp(VecD::broadcast(0.0)))[0], 1.0);
  for (double x = -30.0; x <= 30.0; x += 0.37) {
    const double got = lanes_of(exp(VecD::broadcast(x)))[0];
    const double ref = std::exp(x);
    EXPECT_NEAR(got, ref, 4e-15 * ref) << "x=" << x;
  }
  // Saturation: clamped arguments stay finite and monotone-extreme.
  EXPECT_GT(lanes_of(exp(VecD::broadcast(1.0e4)))[0], 1e300);
  EXPECT_EQ(lanes_of(exp(VecD::broadcast(-1.0e4)))[0],
            lanes_of(exp(VecD::broadcast(-708.0)))[0]);
}

TEST(SimdExp, LanesAreIndependent) {
  std::vector<double> in(WD);
  for (std::size_t i = 0; i < WD; ++i) in[i] = -2.0 + 1.3 * static_cast<double>(i);
  const auto lanes = lanes_of(exp(VecD::load(in.data())));
  for (std::size_t i = 0; i < WD; ++i)
    EXPECT_EQ(lanes[i], lanes_of(exp(VecD::broadcast(in[i])))[0]) << "lane " << i;
}

TEST(SimdSelect, PicksPerLane) {
  const VecD a = VecD::broadcast(1.0);
  const VecD b = VecD::broadcast(2.0);
  EXPECT_EQ(lanes_of(select(cmp_lt(a, b), a, b))[0], 1.0);
  EXPECT_EQ(lanes_of(select(cmp_lt(b, a), a, b))[0], 2.0);
  const VecF af = VecF::broadcast(5.0f);
  const VecF bf = VecF::broadcast(4.0f);
  EXPECT_EQ(lanes_of(select(cmp_ge(af, bf), af, bf))[0], 5.0f);
}

TEST(SimdMovemask, FullAndEmpty) {
  const VecF lo = VecF::broadcast(0.0f);
  const VecF hi = VecF::broadcast(1.0f);
  EXPECT_EQ(movemask(cmp_lt(lo, hi)), (1 << WF) - 1);
  EXPECT_EQ(movemask(cmp_lt(hi, lo)), 0);
}

}  // namespace
}  // namespace evvo::common::simd
