#include "blas/getrf.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "blas/residual.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

using util::Matrix;

// Factor, solve, and check the HPL residual — the end-to-end acceptance test
// every Linpack run in the paper performs.
double factor_solve_residual(std::size_t n, std::size_t nb,
                             util::ThreadPool* pool = nullptr) {
  Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), 42);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<double> b(n), x(n);
  util::Rng rng(7);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  std::vector<std::size_t> ipiv(n);
  EXPECT_TRUE(getrf_blocked<double>(a.view(), ipiv, nb, pool));
  lu_solve_vector<double>(a.view(), ipiv, x);
  return hpl_residual<double>(orig.view(), x, b);
}

TEST(GetrfBlocked, PassesHplCheckSmall) {
  EXPECT_LT(factor_solve_residual(64, 16), kHplResidualThreshold);
}

TEST(GetrfBlocked, PassesHplCheckMedium) {
  EXPECT_LT(factor_solve_residual(200, 32), kHplResidualThreshold);
}

TEST(GetrfBlocked, PassesHplCheckRaggedBlock) {
  // n not a multiple of nb.
  EXPECT_LT(factor_solve_residual(130, 48), kHplResidualThreshold);
}

TEST(GetrfBlocked, PassesHplCheckNbLargerThanN) {
  EXPECT_LT(factor_solve_residual(20, 64), kHplResidualThreshold);
}

TEST(GetrfBlocked, WithThreadPool) {
  util::ThreadPool pool(3);
  EXPECT_LT(factor_solve_residual(150, 32, &pool), kHplResidualThreshold);
}

TEST(GetrfBlocked, MatchesUnblockedFactors) {
  const std::size_t n = 96;
  Matrix<double> a1(n, n), a2(n, n);
  util::fill_hpl_matrix(a1.view(), 5);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
  std::vector<std::size_t> p1(n), p2(n);
  ASSERT_TRUE(getrf_unblocked<double>(a1.view(), p1));
  ASSERT_TRUE(getrf_blocked<double>(a2.view(), p2, 24));
  EXPECT_EQ(p1, p2);
  EXPECT_LT(util::max_abs_diff<double>(a1.view(), a2.view()), 1e-10);
}

TEST(GetrfBlocked, DetectsSingular) {
  Matrix<double> a(16, 16);
  a.fill(2.0);  // rank 1
  std::vector<std::size_t> ipiv(16);
  EXPECT_FALSE(getrf_blocked<double>(a.view(), ipiv, 4));
}

TEST(HplResidual, ZeroForExactSolve) {
  // A = I: x == b exactly.
  const std::size_t n = 8;
  Matrix<double> a(n, n);
  a.fill(0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0;
  std::vector<double> b = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(hpl_residual<double>(a.view(), b, b), 0.0);
}

TEST(HplResidual, LargeForWrongSolution) {
  const std::size_t n = 8;
  Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 1);
  std::vector<double> b(n, 1.0), x(n, 1e6);
  EXPECT_GT(hpl_residual<double>(a.view(), x, b), kHplResidualThreshold);
}

TEST(HplResidual, NonFiniteSolutionFailsTheGate) {
  // A NaN in x makes its rows of A x NaN, which a plain max-norm skips; an
  // Inf inflates ||x|| until any ||r|| scales to 0. Neither may pass.
  const std::size_t n = 8;
  Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 1);
  std::vector<double> b(n, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad = {
      std::vector<double>(n, nan),
      {0.5, nan, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
      {0.5, 0.5, 0.5, inf, 0.5, 0.5, 0.5, 0.5},
      {-inf, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
      {0.5, inf, 0.5, 0.5, 0.5, nan, 0.5, 0.5},
  };
  for (const std::vector<double>& x : bad) {
    const double r = hpl_residual<double>(a.view(), x, b);
    EXPECT_FALSE(r < kHplResidualThreshold) << r;
  }
}

// Property sweep across sizes and block widths.
class GetrfSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GetrfSweep, ResidualUnderThreshold) {
  const auto [n, nb] = GetParam();
  EXPECT_LT(factor_solve_residual(n, nb), kHplResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfSweep,
                         ::testing::Combine(::testing::Values(33, 64, 100, 170),
                                            ::testing::Values(8, 30, 51)));

}  // namespace
}  // namespace xphi::blas
