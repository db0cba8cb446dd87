#include "blas/basic_kernels.h"

#include <gtest/gtest.h>

#include "blas/gemm_ref.h"
#include "blas/mic_intrinsics.h"
#include "blas/pack.h"
#include "util/rng.h"

namespace xphi::blas {
namespace {

using util::Matrix;

// --- Figure 1 operand semantics ---

TEST(MicIntrinsics, Broadcast1to8) {
  const double x = 3.25;
  const auto v = mic::broadcast_1to8(&x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(v[i], 3.25);
}

TEST(MicIntrinsics, Broadcast4to8ReplicatesFourElementsTwice) {
  // Figure 1a: @A = {A0, A1, A2, A3} -> v0 = {A0..A3, A0..A3}.
  const double a[4] = {1, 2, 3, 4};
  const auto v = mic::broadcast_4to8(a);
  for (std::size_t lane = 0; lane < 2; ++lane)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(v[lane * 4 + i], a[i]);
}

TEST(MicIntrinsics, SwizzleReplicatesLaneElement) {
  // Figure 1b: SWIZZLE_2 of {a,b,c,d, e,f,g,h} -> {c,c,c,c, g,g,g,g}.
  mic::vec8d v;
  for (std::size_t i = 0; i < 8; ++i) v[i] = static_cast<double>(i + 1);
  const auto s2 = mic::swizzle<2>(v);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s2[i], 3.0);
    EXPECT_EQ(s2[4 + i], 7.0);
  }
  const auto s0 = mic::swizzle<0>(v);
  EXPECT_EQ(s0[0], 1.0);
  EXPECT_EQ(s0[7], 5.0);
}

TEST(MicIntrinsics, FmaddAccumulates) {
  mic::vec8d acc, a, b;
  for (std::size_t i = 0; i < 8; ++i) {
    acc[i] = 1.0;
    a[i] = 2.0;
    b[i] = static_cast<double>(i);
  }
  mic::fmadd(acc, a, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(acc[i], 1.0 + 2.0 * i);
}

TEST(MicIntrinsics, LoadStoreRoundTrip) {
  alignas(64) double buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  alignas(64) double out[8] = {};
  mic::vstore(out, mic::vload(buf));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], buf[i]);
}

// --- Figure 2 kernels against the reference GEMM ---

class BasicKernelTest : public ::testing::Test {
 protected:
  // Builds packed tiles and a reference product for `rows` x 8 over depth k.
  void run(std::size_t rows, std::size_t k,
           void (*kernel)(const double*, const double*, std::size_t, double*,
                          std::size_t)) {
    Matrix<double> a(rows, k), b(k, 8), c(rows, 8), c_ref(rows, 8);
    util::fill_hpl_matrix(a.view(), 3);
    util::fill_hpl_matrix(b.view(), 4);
    c.fill(0);
    c_ref.fill(0);
    PackedA<double> pa;
    PackedB<double> pb;
    pa.pack(a.view(), rows);  // one tile of exactly `rows` rows
    pb.pack(b.view());
    kernel(pa.tile(0), pb.tile(0), k, c.data(), c.ld());
    gemm_ref<double>(1.0, a.view(), b.view(), 0.0, c_ref.view(),
                     mk::Accumulate::kUnfused);
    EXPECT_LT(util::max_abs_diff<double>(c.view(), c_ref.view()), 1e-12)
        << "rows=" << rows << " k=" << k;
  }
};

TEST_F(BasicKernelTest, Kernel1MatchesReference) {
  run(31, 17, basic_kernel1);
  run(31, 240, basic_kernel1);
}

TEST_F(BasicKernelTest, Kernel2MatchesReference) {
  run(30, 17, basic_kernel2);
  run(30, 240, basic_kernel2);
}

TEST_F(BasicKernelTest, KernelsAgreeOnSharedRows) {
  // On the same inputs, the 30 rows both kernels compute must be identical:
  // the register-blocking trade-off changes scheduling, not math.
  const std::size_t k = 64;
  Matrix<double> a(31, k), b(k, 8);
  util::fill_hpl_matrix(a.view(), 5);
  util::fill_hpl_matrix(b.view(), 6);
  Matrix<double> c1(31, 8), c2(30, 8);
  c1.fill(0);
  c2.fill(0);
  PackedA<double> pa31, pa30;
  pa31.pack(a.view(), 31);
  pa30.pack(a.block(0, 0, 30, k), 30);
  PackedB<double> pb;
  pb.pack(b.view());
  basic_kernel1(pa31.tile(0), pb.tile(0), k, c1.data(), c1.ld());
  basic_kernel2(pa30.tile(0), pb.tile(0), k, c2.data(), c2.ld());
  for (std::size_t r = 0; r < 30; ++r)
    for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(c1(r, j), c2(r, j));
}

TEST_F(BasicKernelTest, KernelsAccumulateIntoC) {
  const std::size_t k = 8;
  Matrix<double> a(30, k), b(k, 8), c(30, 8), expect(30, 8);
  util::fill_hpl_matrix(a.view(), 7);
  util::fill_hpl_matrix(b.view(), 8);
  c.fill(2.5);
  expect.fill(2.5);
  gemm_ref<double>(1.0, a.view(), b.view(), 1.0, expect.view(),
                   mk::Accumulate::kUnfused);
  PackedA<double> pa;
  PackedB<double> pb;
  pa.pack(a.view(), 30);
  pb.pack(b.view());
  basic_kernel2(pa.tile(0), pb.tile(0), k, c.data(), c.ld());
  EXPECT_LT(util::max_abs_diff<double>(c.view(), expect.view()), 1e-13);
}

}  // namespace
}  // namespace xphi::blas
