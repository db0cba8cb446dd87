#include "blas/gemm_tiled.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "blas/gemm_ref.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

using util::Matrix;

template <class T>
void expect_gemm_matches_ref(std::size_t m, std::size_t n, std::size_t k,
                             T alpha, T beta, std::size_t chunk_k,
                             util::ThreadPool* pool = nullptr,
                             double tol = 1e-10) {
  Matrix<T> a(m, k), b(k, n), c(m, n), c_ref(m, n);
  util::fill_hpl_matrix(a.view(), 11);
  util::fill_hpl_matrix(b.view(), 22);
  util::fill_hpl_matrix(c.view(), 33);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t cc = 0; cc < n; ++cc) c_ref(r, cc) = c(r, cc);

  gemm_ref<T>(alpha, a.view(), b.view(), beta, c_ref.view(),
              mk::select_kernel<T>(0).accumulate());
  gemm_tiled<T>(alpha, a.view(), b.view(), beta, c.view(), chunk_k, pool);
  EXPECT_LT(util::max_abs_diff<T>(c.view(), c_ref.view()), tol)
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST(MicroKernel, SingleTileMatchesRef) {
  Matrix<double> a(30, 17), b(17, 8), c(30, 8), c_ref(30, 8);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  c.fill(0);
  c_ref.fill(0);
  PackedA<double> pa;
  PackedB<double> pb;
  pa.pack(a.view());
  pb.pack(b.view());
  micro_kernel<double>(pa.tile(0), pb.tile(0), 17, 1.0, 0.0, c.data(), c.ld(),
                       30, 8);
  gemm_ref<double>(1.0, a.view(), b.view(), 0.0, c_ref.view(),
                   mk::Accumulate::kUnfused);
  EXPECT_LT(util::max_abs_diff<double>(c.view(), c_ref.view()), 1e-12);
}

TEST(MicroKernel, MasksPaddingOnEdgeTiles) {
  // 7 live rows, 3 live cols: the kernel must not write outside the corner.
  Matrix<double> c(9, 5);
  c.fill(99.0);
  Matrix<double> a(7, 4), b(4, 3);
  util::fill_hpl_matrix(a.view(), 3);
  util::fill_hpl_matrix(b.view(), 4);
  PackedA<double> pa;
  PackedB<double> pb;
  pa.pack(a.view());
  pb.pack(b.view());
  micro_kernel<double>(pa.tile(0), pb.tile(0), 4, 1.0, 0.0, c.data(), c.ld(),
                       7, 3);
  // Outside the 7x3 corner must be untouched.
  for (std::size_t r = 0; r < 9; ++r) {
    for (std::size_t cc = 0; cc < 5; ++cc) {
      if (r >= 7 || cc >= 3) {
        EXPECT_EQ(c(r, cc), 99.0);
      }
    }
  }
}

TEST(GemmTiled, ExactTileMultiple) {
  expect_gemm_matches_ref<double>(60, 16, 32, 1.0, 0.0, 32);
}

TEST(GemmTiled, RaggedEverything) {
  expect_gemm_matches_ref<double>(47, 13, 29, 1.0, 0.0, 10);
}

TEST(GemmTiled, AlphaBeta) {
  expect_gemm_matches_ref<double>(33, 21, 18, -2.5, 0.75, 7);
}

TEST(GemmTiled, MultipleKChunksAccumulate) {
  expect_gemm_matches_ref<double>(40, 24, 100, 1.0, 1.0, 30);
}

TEST(GemmTiled, SubtractionAsInLuUpdate) {
  // The trailing update uses alpha=-1, beta=1.
  expect_gemm_matches_ref<double>(50, 50, 16, -1.0, 1.0, 16);
}

TEST(GemmTiled, WithThreadPool) {
  util::ThreadPool pool(3);
  expect_gemm_matches_ref<double>(90, 40, 35, 1.0, 1.0, 20, &pool);
}

TEST(GemmTiled, FloatPrecision) {
  expect_gemm_matches_ref<float>(31, 9, 12, 1.0f, 0.5f, 12, nullptr, 1e-4);
}

TEST(GemmTiled, DegenerateK0ScalesByBeta) {
  Matrix<double> a(4, 0), b(0, 4), c(4, 4);
  c.fill(2.0);
  gemm_tiled<double>(1.0, a.view(), b.view(), 0.5, c.view());
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t cc = 0; cc < 4; ++cc) EXPECT_EQ(c(r, cc), 1.0);
}

TEST(GemmTiled, SingleRowAndColumn) {
  expect_gemm_matches_ref<double>(1, 1, 5, 1.0, 0.0, 5);
  expect_gemm_matches_ref<double>(1, 64, 8, 1.0, 0.0, 8);
  expect_gemm_matches_ref<double>(64, 1, 8, 1.0, 0.0, 8);
}

TEST(OuterProductPacked, OperatesOnSubBlockOfC) {
  Matrix<double> big(100, 100);
  big.fill(0.0);
  Matrix<double> a(30, 8), b(8, 16);
  util::fill_hpl_matrix(a.view(), 5);
  util::fill_hpl_matrix(b.view(), 6);
  PackedA<double> pa;
  PackedB<double> pb;
  pa.pack(a.view());
  pb.pack(b.view());
  auto cblk = big.block(10, 20, 30, 16);
  outer_product_packed<double>(1.0, pa, pb, 0.0, cblk);
  Matrix<double> ref(30, 16);
  ref.fill(0.0);
  gemm_ref<double>(1.0, a.view(), b.view(), 0.0, ref.view(),
                   mk::Accumulate::kUnfused);
  EXPECT_LT(util::max_abs_diff<double>(
                util::MatrixView<const double>(cblk), ref.view()),
            1e-12);
  EXPECT_EQ(big(9, 20), 0.0);   // no writes outside the block
  EXPECT_EQ(big(40, 20), 0.0);
}

TEST(GemmColMajor, MatchesRowMajorReference) {
  // Paper footnote 3: column-major GEMM via operand swap. Build column-major
  // operands, multiply, and compare element-wise against the row-major
  // reference product.
  const std::size_t m = 23, n = 17, k = 11;
  // Column-major storage with padded leading dimensions.
  const std::size_t lda = m + 3, ldb = k + 2, ldc = m + 1;
  std::vector<double> a(lda * k), b(ldb * n), c(ldc * n, 0.0);
  util::Rng rng(77);
  Matrix<double> arm(m, k), brm(k, n), cref(m, n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      const double v = rng.next_centered();
      a[j * lda + i] = v;  // column-major A(i,j)
      arm(i, j) = v;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      const double v = rng.next_centered();
      b[j * ldb + i] = v;
      brm(i, j) = v;
    }
  }
  cref.fill(0.0);
  gemm_ref<double>(1.0, arm.view(), brm.view(), 0.0, cref.view(),
                   mk::Accumulate::kUnfused);
  gemm_tiled_colmajor<double>(m, n, k, 1.0, a.data(), lda, b.data(), ldb, 0.0,
                              c.data(), ldc, /*chunk_k=*/8);
  double err = 0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      err = std::max(err, std::abs(c[j * ldc + i] - cref(i, j)));
  EXPECT_LT(err, 1e-12);
}

TEST(GemmColMajor, AccumulatesWithBeta) {
  const std::size_t m = 8, n = 8, k = 4;
  std::vector<double> a(m * k, 0.5), b(k * n, 2.0), c(m * n, 1.0);
  gemm_tiled_colmajor<double>(m, n, k, 1.0, a.data(), m, b.data(), k, 3.0,
                              c.data(), m, 4);
  // Each entry: 1*Sum(0.5*2.0, k terms) + 3*1 = 4 + 3.
  for (double v : c) EXPECT_DOUBLE_EQ(v, 7.0);
}

// Edge shapes through the fast/masked kernel split: the full-tile fast path
// must engage only on interior 30x8 tiles, the masked path on everything
// else, and both must agree with the reference.
TEST(GemmKernelSplit, ShapesNotMultiplesOfTileDims) {
  // M % 30 != 0 and N % 8 != 0: every boundary tile takes the masked path,
  // all interior tiles the fast path.
  expect_gemm_matches_ref<double>(61, 17, 40, 1.0, 0.0, 40);
  expect_gemm_matches_ref<double>(92, 25, 33, -1.0, 1.0, 16);
}

TEST(GemmKernelSplit, SmallerThanOneTile) {
  // M < 30 and/or N < 8: no full tile exists, the fast path must never run.
  expect_gemm_matches_ref<double>(7, 3, 20, 1.0, 0.0, 20);
  expect_gemm_matches_ref<double>(29, 8, 12, 1.0, 1.0, 12);   // N exact, M short
  expect_gemm_matches_ref<double>(30, 7, 12, 2.0, 0.5, 12);   // M exact, N short
}

TEST(GemmKernelSplit, RankOneUpdate) {
  // k = 1 exercises the degenerate accumulation depth on both paths.
  expect_gemm_matches_ref<double>(60, 16, 1, 1.0, 0.0, 1);
  expect_gemm_matches_ref<double>(47, 13, 1, -2.0, 1.0, 1);
}

TEST(GemmKernelSplit, BetaZeroVersusAccumulate) {
  // Same inputs, beta = 0 (overwrite) vs beta = 1 (accumulate), both
  // against the reference — catches a fast path that drops the C term or
  // applies beta to later k-chunks.
  for (const double beta : {0.0, 1.0}) {
    expect_gemm_matches_ref<double>(60, 16, 90, 1.0, beta, 30);
    expect_gemm_matches_ref<double>(45, 11, 90, 1.0, beta, 30);
  }
}

TEST(GemmKernelSplit, FullTileFastPathMatchesMaskedBitwise) {
  // On an interior tile the fast path must produce bit-identical results to
  // the masked path (same per-element accumulation order).
  Matrix<double> a(30, 57), b(57, 8);
  util::fill_hpl_matrix(a.view(), 41);
  util::fill_hpl_matrix(b.view(), 42);
  PackedA<double> pa;
  PackedB<double> pb;
  pa.pack(a.view());
  pb.pack(b.view());
  Matrix<double> c_fast(30, 8), c_masked(30, 8);
  c_fast.fill(0.25);
  c_masked.fill(0.25);
  micro_kernel_full<double, kTileRows, kTileCols, kMicroRows>(
      pa.tile(0), pb.tile(0), 57, -1.5, 0.75, c_fast.data(), c_fast.ld());
  micro_kernel_masked<double>(pa.tile(0), pb.tile(0), 57, -1.5, 0.75,
                              c_masked.data(), c_masked.ld(), 30, 8);
  EXPECT_EQ(std::memcmp(c_fast.data(), c_masked.data(),
                        30 * 8 * sizeof(double)),
            0);
}

TEST(GemmTiled, PooledMultiChunkDoubleBuffering) {
  // Several k-chunks with a pool: the fused dispatch packs chunk i+1 while
  // chunk i's outer products run; results must match the reference exactly
  // as in the serial case.
  util::ThreadPool pool(4);
  expect_gemm_matches_ref<double>(95, 37, 250, 1.0, 1.0, 48, &pool);
  expect_gemm_matches_ref<double>(64, 24, 101, -1.0, 0.0, 25, &pool);
}

// Parameterized shape sweep: the tiled GEMM must agree with the reference on
// a grid of awkward shapes (property-style coverage of edge handling).
class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, MatchesReference) {
  const auto [m, n, k] = GetParam();
  expect_gemm_matches_ref<double>(m, n, k, 1.0, 1.0, 13);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Combine(::testing::Values(1, 29, 30, 31, 61),
                       ::testing::Values(1, 7, 8, 9, 24),
                       ::testing::Values(1, 13, 26)));

TEST(GemmFuzz, SeededRaggedShapes) {
  // Seeded randomized sweep beyond the fixed grid above. Every fourth draw
  // is forced into an edge class the masked tail paths must handle: partial
  // M tile (m < 30), partial N tile (n < 8), rank-1 update (k = 1). The
  // chunk split and the occasional thread pool must never change the match.
  util::Rng rng(20260805);
  util::ThreadPool pool(3);
  for (int iter = 0; iter < 48; ++iter) {
    std::size_t m = 1 + rng.next_u64() % 96;
    std::size_t n = 1 + rng.next_u64() % 48;
    std::size_t k = 1 + rng.next_u64() % 64;
    switch (iter % 4) {
      case 1: m = 1 + rng.next_u64() % 29; break;  // shorter than one M tile
      case 2: n = 1 + rng.next_u64() % 7; break;   // shorter than one N tile
      case 3: k = 1; break;                        // rank-1 update
      default: break;
    }
    const std::size_t chunk_k = 1 + rng.next_u64() % k;
    const double alpha = (rng.next_u64() % 2) ? 1.0 : -1.0;
    const double beta = (rng.next_u64() % 2) ? 1.0 : 0.0;
    util::ThreadPool* p = (rng.next_u64() % 4 == 0) ? &pool : nullptr;
    SCOPED_TRACE(::testing::Message() << "iter=" << iter << " chunk_k="
                                      << chunk_k << (p ? " pooled" : ""));
    expect_gemm_matches_ref<double>(m, n, k, alpha, beta, chunk_k, p);
  }
}

}  // namespace
}  // namespace xphi::blas
