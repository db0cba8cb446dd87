#include "lu/functional.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "util/rng.h"

namespace xphi::lu {
namespace {

TEST(DagLuFactor, MatchesSequentialBlockedFactorization) {
  const std::size_t n = 96, nb = 24;
  util::Matrix<double> a1(n, n), a2(n, n);
  util::fill_hpl_matrix(a1.view(), 9);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
  std::vector<std::size_t> p1(n), p2(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a1.view(), p1, nb));
  ASSERT_TRUE(dag_lu_factor(a2.view(), p2, nb, /*workers=*/1));
  EXPECT_EQ(p1, p2);
  EXPECT_LT(util::max_abs_diff<double>(a1.view(), a2.view()), 1e-10);
}

TEST(DagLuFactor, MultiWorkerMatchesSingleWorker) {
  const std::size_t n = 120, nb = 30;
  util::Matrix<double> a1(n, n), a2(n, n);
  util::fill_hpl_matrix(a1.view(), 17);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
  std::vector<std::size_t> p1(n), p2(n);
  ASSERT_TRUE(dag_lu_factor(a1.view(), p1, nb, 1));
  ASSERT_TRUE(dag_lu_factor(a2.view(), p2, nb, 4));
  EXPECT_EQ(p1, p2);
  // Dynamic scheduling changes execution order, not results.
  EXPECT_LT(util::max_abs_diff<double>(a1.view(), a2.view()), 1e-10);
}

/// DAG LU with `kernel` pinned through PanelOptions, 4 workers, against
/// getrf_blocked with the same pin: factors and pivots bitwise equal.
template <class T>
void expect_dag_bitwise_blocked(int kernel, std::size_t n, std::size_t nb) {
  util::Matrix<double> src(n, n);
  util::fill_hpl_matrix(src.view(), 23);
  util::Matrix<T> want(n, n), got(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      want(r, c) = got(r, c) = static_cast<T>(src(r, c));
  blas::PanelOptions panel;
  panel.microkernel = kernel;
  std::vector<std::size_t> pw(n), pg(n);
  ASSERT_TRUE(
      blas::getrf_blocked<T>(want.view(), pw, nb, /*pool=*/nullptr, panel));
  ASSERT_TRUE(dag_lu_factor_t<T>(got.view(), pg, nb, /*workers=*/4,
                                 /*pack_stats=*/nullptr, panel));
  EXPECT_EQ(pw, pg);
  for (std::size_t r = 0; r < n; ++r)
    ASSERT_EQ(std::memcmp(got.data() + r * got.ld(),
                          want.data() + r * want.ld(), n * sizeof(T)),
              0)
        << "row " << r;
}

TEST(DagLuFactor, EveryKernelPinBitwiseEqualsBlocked) {
  // The DAG packs L21 and U12 at the tile geometry gemm_tiled dispatches
  // for PanelOptions::microkernel, so every pin reaches the update tasks;
  // the factors stay bitwise getrf_blocked's under each one.
  for (const int id : {0, 308, 408, 608, 806, 412, 808}) {
    for (const auto& [n, nb] : {std::pair<std::size_t, std::size_t>{150, 32},
                                {97, 16}}) {
      SCOPED_TRACE(testing::Message()
                   << "kernel " << id << " n " << n << " nb " << nb);
      expect_dag_bitwise_blocked<double>(id, n, nb);
      expect_dag_bitwise_blocked<float>(id, n, nb);
    }
  }
}

TEST(FunctionalDagLu, PassesHplResidualSingleWorker) {
  const auto res = run_functional_dag_lu(100, 25, 1);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
}

TEST(FunctionalDagLu, PassesHplResidualFourWorkers) {
  const auto res = run_functional_dag_lu(150, 32, 4);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
}

TEST(FunctionalDagLu, RaggedPanelWidth) {
  // n not a multiple of nb exercises the edge panels.
  const auto res = run_functional_dag_lu(130, 28, 3);
  EXPECT_TRUE(res.ok);
}

TEST(FunctionalDagLu, SinglePanelProblem) {
  const auto res = run_functional_dag_lu(20, 64, 2);
  EXPECT_TRUE(res.ok);
}

TEST(FunctionalDagLu, RepeatedRunsAreDeterministic) {
  const auto r1 = run_functional_dag_lu(80, 16, 3, /*seed=*/7);
  const auto r2 = run_functional_dag_lu(80, 16, 3, /*seed=*/7);
  EXPECT_TRUE(r1.ok);
  EXPECT_DOUBLE_EQ(r1.residual, r2.residual);
}

// Stress the scheduler protocol with many small panels and several threads —
// on a race this either deadlocks (test timeout) or corrupts the residual.
TEST(FunctionalDagLu, ManyPanelsStress) {
  const auto res = run_functional_dag_lu(144, 8, 4);
  EXPECT_TRUE(res.ok);
}

}  // namespace
}  // namespace xphi::lu
