// Edge cases and equivalence contracts of the panel critical-path kernels
// (blas/lu_kernels.h): pooled iamax vs the serial scan (ties, NaN, single
// rows), fused LASWP vs the sequential per-pivot sweep, the blocked TRSMs vs
// their scalar references, the trsm_left_upper singularity contract, and
// bitwise serial/pooled equality of the recursive panel factorization.
#include "blas/lu_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

using util::Matrix;
using util::MatrixView;
using util::ThreadPool;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Tall single-column matrix, small random entries.
Matrix<double> column(std::size_t rows, std::uint64_t seed) {
  Matrix<double> a(rows, 1);
  util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) a(r, 0) = 0.1 * rng.next_centered();
  return a;
}

void copy(Matrix<double>& dst, const Matrix<double>& src) {
  for (std::size_t r = 0; r < src.rows(); ++r)
    for (std::size_t c = 0; c < src.cols(); ++c) dst(r, c) = src(r, c);
}

TEST(IamaxCol, TieKeepsLowestIndexSerialAndPooled) {
  // Rows large enough that the pooled overload takes the chunked path.
  auto a = column(1024, 1);
  a(100, 0) = -7.0;
  a(900, 0) = 7.0;  // same magnitude, higher index: must lose the tie
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 100u);
  ThreadPool pool(3);
  EXPECT_EQ(iamax_col<double>(v, 0, 0, &pool), 100u);
}

TEST(IamaxCol, InteriorNaNCannotMaskLaterValues) {
  auto a = column(1024, 2);
  a(5, 0) = kNaN;
  a(800, 0) = 9.0;
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 800u);
  ThreadPool pool(3);
  // The NaN sits inside chunk 0; chunks > 0 must still win with 9.0.
  EXPECT_EQ(iamax_col<double>(v, 0, 0, &pool), 800u);
  // NaN inside a later chunk must not shadow that chunk's own values either.
  a(5, 0) = 0.0;
  a(700, 0) = kNaN;
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 800u);
  EXPECT_EQ(iamax_col<double>(v, 0, 0, &pool), 800u);
}

TEST(IamaxCol, NaNAtFirstRowIsStickyLikeSerial) {
  // The LAPACK quirk: a NaN seed makes every comparison false, so row0 wins
  // regardless of later magnitudes. The pooled reduction must reproduce it.
  auto a = column(1024, 3);
  a(0, 0) = kNaN;
  a(512, 0) = 100.0;
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 0u);
  ThreadPool pool(3);
  EXPECT_EQ(iamax_col<double>(v, 0, 0, &pool), 0u);
}

TEST(IamaxCol, SingleRowPanel) {
  Matrix<double> a(1, 3);
  a(0, 0) = 4.0;
  a(0, 1) = 2.0;
  a(0, 2) = -3.0;
  MatrixView<const double> v(a.view());
  ThreadPool pool(2);
  EXPECT_EQ(iamax_col<double>(v, 1, 0), 0u);
  EXPECT_EQ(iamax_col<double>(v, 1, 0, &pool), 0u);
  // A 1-row panel factors too (no pivoting possible, pivot = row 0).
  std::vector<std::size_t> piv(3);
  EXPECT_TRUE(getrf_panel<double>(a.view(), piv));
  EXPECT_EQ(piv[0], 0u);
}

TEST(IamaxCol, PooledMatchesSerialOnRandomColumns) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto a = column(2048, 100 + seed);
    MatrixView<const double> v(a.view());
    for (std::size_t row0 : {0u, 1u, 517u}) {
      EXPECT_EQ(iamax_col<double>(v, 0, row0),
                iamax_col<double>(v, 0, row0, &pool))
          << "seed " << seed << " row0 " << row0;
    }
  }
}

TEST(MakeSwapPlan, DropsSelfSwapsKeepsOrder) {
  const std::vector<std::size_t> ipiv{0, 5, 2, 7};  // 0 and 2 are self-swaps
  const SwapPlan plan =
      make_swap_plan(std::span<const std::size_t>(ipiv), 0, 4);
  ASSERT_EQ(plan.pairs.size(), 2u);
  EXPECT_EQ(plan.pairs[0], (std::pair<std::size_t, std::size_t>{1, 5}));
  EXPECT_EQ(plan.pairs[1], (std::pair<std::size_t, std::size_t>{3, 7}));
  const SwapPlan identity =
      make_swap_plan(std::span<const std::size_t>(ipiv), 0, 1);
  EXPECT_TRUE(identity.empty());
}

TEST(FusedLaswp, MatchesSequentialOnRandomPivotSequences) {
  constexpr std::size_t kRows = 300, kCols = 201, kPivots = 48;
  ThreadPool pool(3);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Matrix<double> ref(kRows, kCols);
    util::fill_hpl_matrix(ref.view(), seed);
    // Partial-pivoting-shaped sequence: step i swaps with a row >= i, with
    // self-swaps (ipiv[i] == i) forced in regularly.
    util::Rng rng(seed * 77);
    std::vector<std::size_t> ipiv(kPivots);
    for (std::size_t i = 0; i < kPivots; ++i)
      ipiv[i] = i % 5 == 0 ? i : i + rng.next_u64() % (kRows - i);
    Matrix<double> seq(kRows, kCols);
    copy(seq, ref);
    laswp<double>(seq.view(), std::span<const std::size_t>(ipiv), 0, kPivots);
    // Every chunking — serial, pooled, degenerate chunk sizes — is exactly
    // the same permutation.
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{64},
                                    std::size_t{1024}}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        Matrix<double> fused(kRows, kCols);
        copy(fused, ref);
        laswp_fused<double>(fused.view(), std::span<const std::size_t>(ipiv),
                            0, kPivots, p, chunk);
        for (std::size_t r = 0; r < kRows; ++r)
          for (std::size_t c = 0; c < kCols; ++c)
            ASSERT_EQ(fused(r, c), seq(r, c))
                << "seed " << seed << " chunk " << chunk << " pooled "
                << (p != nullptr) << " at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(TrsmUpper, SingularDiagonalRefusedAndRhsUntouched) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{150}}) {
    Matrix<double> u(n, n);
    util::fill_hpl_matrix(u.view(), 9);
    for (std::size_t i = 0; i < n; ++i) u(i, i) = 1.0 + 0.01 * i;
    u(n / 2, n / 2) = 0.0;  // exact singularity mid-matrix
    Matrix<double> b(n, 5), b0(n, 5);
    util::fill_hpl_matrix(b.view(), 10);
    copy(b0, b);
    EXPECT_FALSE(
        trsm_left_upper<double>(MatrixView<const double>(u.view()), b.view()));
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < 5; ++c)
        ASSERT_EQ(b(r, c), b0(r, c)) << "rhs modified at (" << r << "," << c
                                     << ") despite singular U, n=" << n;
  }
}

/// Every pool width the blocked TRSMs must be bitwise-blind to: no pool,
/// and pools of 1, 2, 3 and 7 workers (2, 3, 4 and 8 participants, so the
/// per-participant chunk width takes ragged and 16-column-floor values).
std::vector<std::unique_ptr<ThreadPool>> trsm_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (std::size_t w : {1u, 2u, 3u, 7u})
    pools.push_back(std::make_unique<ThreadPool>(w));
  return pools;
}

/// (triangle order, right-hand-side columns): column counts around the
/// 16-column quantum, one past trsm_col_chunk at n = 64 (2049, several L2
/// chunks at order n), and lu_node's U block (nb = 64 against the first
/// stage's 3008-column trailing matrix at n = 3072).
std::vector<std::pair<std::size_t, std::size_t>> trsm_shapes(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t cols : {1u, 15u, 16u, 17u, 33u, 2049u})
    shapes.emplace_back(n, cols);
  shapes.emplace_back(64, 3008);
  return shapes;
}

bool same_bits(const Matrix<double>& a, const Matrix<double>& b) {
  for (std::size_t r = 0; r < a.rows(); ++r)
    if (std::memcmp(&a(r, 0), &b(r, 0), a.cols() * sizeof(double)) != 0)
      return false;
  return true;
}

TEST(TrsmUpper, BlockedSolveMatchesScalarReference) {
  // n large enough for several register-block groups plus remainders;
  // diagonally dominant U keeps the back substitution well conditioned.
  const auto pools = trsm_pools();
  for (const auto& [n, cols] : trsm_shapes(150)) {
    Matrix<double> u(n, n);
    util::fill_hpl_matrix(u.view(), 20);
    for (std::size_t i = 0; i < n; ++i) {
      double row_sum = 0;
      for (std::size_t j = i + 1; j < n; ++j) row_sum += std::abs(u(i, j));
      u(i, i) = row_sum + 1.0;
    }
    Matrix<double> b(n, cols), x_ref(n, cols);
    util::fill_hpl_matrix(b.view(), 21);
    copy(x_ref, b);
    trsm_left_upper_unblocked<double>(MatrixView<const double>(u.view()),
                                      x_ref.view());
    for (const auto& pool : pools) {
      Matrix<double> x(n, cols);
      copy(x, b);
      ASSERT_TRUE(trsm_left_upper<double>(MatrixView<const double>(u.view()),
                                          x.view(), pool.get()));
      ASSERT_TRUE(same_bits(x, x_ref))
          << n << "x" << cols << " workers=" << (pool ? pool->size() : 0);
    }
  }
}

TEST(TrsmLowerUnit, BlockedSolveMatchesScalarReference) {
  const auto pools = trsm_pools();
  for (const auto& [n, cols] : trsm_shapes(200)) {
    Matrix<double> l(n, n);
    util::fill_hpl_matrix(l.view(), 30);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) l(i, j) *= 0.05;  // keep growth tame
    Matrix<double> b(n, cols), x_ref(n, cols);
    util::fill_hpl_matrix(b.view(), 31);
    copy(x_ref, b);
    trsm_left_lower_unit_unblocked<double>(MatrixView<const double>(l.view()),
                                           x_ref.view());
    for (const auto& pool : pools) {
      Matrix<double> x(n, cols);
      copy(x, b);
      trsm_left_lower_unit<double>(MatrixView<const double>(l.view()),
                                   x.view(), pool.get());
      ASSERT_TRUE(same_bits(x, x_ref))
          << n << "x" << cols << " workers=" << (pool ? pool->size() : 0);
    }
  }
}

TEST(GetrfUnblocked, PooledBitwiseMatchesSerial) {
  // m >= kPanelParallelMinRows so the pooled iamax and rank-1 paths engage.
  constexpr std::size_t kM = 700, kN = 40;
  Matrix<double> a1(kM, kN), a2(kM, kN);
  util::fill_hpl_matrix(a1.view(), 40);
  copy(a2, a1);
  std::vector<std::size_t> p1(kN), p2(kN);
  ASSERT_TRUE(getrf_unblocked<double>(a1.view(), p1));
  ThreadPool pool(3);
  ASSERT_TRUE(getrf_unblocked<double>(a2.view(), p2, &pool));
  EXPECT_EQ(p1, p2);
  for (std::size_t r = 0; r < kM; ++r)
    for (std::size_t c = 0; c < kN; ++c)
      ASSERT_EQ(a1(r, c), a2(r, c)) << "(" << r << "," << c << ")";
}

TEST(GetrfPanel, PooledBitwiseMatchesSerialAcrossKnobs) {
  constexpr std::size_t kM = 640, kN = 64;
  Matrix<double> ref(kM, kN);
  util::fill_hpl_matrix(ref.view(), 50);
  Matrix<double> a1(kM, kN);
  copy(a1, ref);
  std::vector<std::size_t> p1(kN);
  ASSERT_TRUE(getrf_panel<double>(a1.view(), p1));
  ThreadPool pool(3);
  for (const std::size_t nb_min : {std::size_t{4}, std::size_t{8},
                                   std::size_t{32}}) {
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{16}}) {
      Matrix<double> a2(kM, kN);
      copy(a2, ref);
      std::vector<std::size_t> p2(kN);
      PanelOptions opt;
      opt.nb_min = nb_min;
      opt.laswp_col_chunk = chunk;
      opt.pool = &pool;
      ASSERT_TRUE(getrf_panel<double>(a2.view(), p2, opt));
      EXPECT_EQ(p1, p2) << "nb_min " << nb_min << " chunk " << chunk;
      // The factors must agree to rounding across recursion cutoffs; with
      // the same cutoff (8) they are bitwise identical pooled or not.
      for (std::size_t r = 0; r < kM; ++r)
        for (std::size_t c = 0; c < kN; ++c) {
          if (nb_min == 8) {
            ASSERT_EQ(a1(r, c), a2(r, c))
                << "nb_min " << nb_min << " (" << r << "," << c << ")";
          } else {
            ASSERT_NEAR(a1(r, c), a2(r, c), 1e-9)
                << "nb_min " << nb_min << " (" << r << "," << c << ")";
          }
        }
    }
  }
}

TEST(GetrfPanel, PivotSequenceMatchesUnblockedReference) {
  constexpr std::size_t kM = 260, kN = 48;
  Matrix<double> a_ref(kM, kN), a_rec(kM, kN);
  util::fill_hpl_matrix(a_ref.view(), 60);
  copy(a_rec, a_ref);
  std::vector<std::size_t> p_ref(kN), p_rec(kN);
  ASSERT_TRUE(getrf_unblocked<double>(a_ref.view(), p_ref));
  ASSERT_TRUE(getrf_panel<double>(a_rec.view(), p_rec));
  EXPECT_EQ(p_ref, p_rec);
  for (std::size_t r = 0; r < kM; ++r)
    for (std::size_t c = 0; c < kN; ++c)
      ASSERT_NEAR(a_ref(r, c), a_rec(r, c), 1e-10);
}

}  // namespace
}  // namespace xphi::blas
