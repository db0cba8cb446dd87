#include "core/offload_functional.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "blas/gemm_ref.h"
#include "blas/gemm_tiled.h"
#include "blas/getrf.h"
#include "util/rng.h"

namespace xphi::core {
namespace {

using util::Matrix;

void expect_offload_matches_ref(std::size_t m, std::size_t n, std::size_t k,
                                const FunctionalOffloadConfig& cfg,
                                FunctionalOffloadStats* stats_out = nullptr) {
  Matrix<double> a(m, k), b(k, n), c(m, n), c_ref(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  util::fill_hpl_matrix(c.view(), 3);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t cc = 0; cc < n; ++cc) c_ref(r, cc) = c(r, cc);
  blas::gemm_ref<double>(-1.0, a.view(), b.view(), 1.0, c_ref.view(),
                         blas::mk::Accumulate::kUnfused);
  const auto stats =
      offload_gemm_functional(-1.0, a.view(), b.view(), c.view(), cfg);
  EXPECT_LT(util::max_abs_diff<double>(c.view(), c_ref.view()), 1e-10);
  EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
  if (stats_out != nullptr) *stats_out = stats;
}

TEST(OffloadFunctional, SingleCardNoHost) {
  FunctionalOffloadConfig cfg;
  cfg.cards = 1;
  cfg.host_steals = false;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(128, 128, 48, cfg, &stats);
  EXPECT_EQ(stats.tiles_host, 0u);
  EXPECT_EQ(stats.tiles_cards, stats.tiles_total);
}

TEST(OffloadFunctional, HostStealsFromTheBack) {
  FunctionalOffloadConfig cfg;
  cfg.cards = 1;
  cfg.host_steals = true;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(192, 192, 32, cfg, &stats);
  EXPECT_GT(stats.tiles_total, 0u);
}

TEST(OffloadFunctional, TwoCards) {
  FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = false;
  expect_offload_matches_ref(160, 160, 40, cfg);
}

TEST(OffloadFunctional, RaggedShapeWithMergedTiles) {
  FunctionalOffloadConfig cfg;
  cfg.knobs.mt = 50;
  cfg.knobs.nt = 70;
  cfg.cards = 1;
  cfg.host_steals = true;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(173, 141, 29, cfg, &stats);
  // 173/50 -> 3 row tiles (last merged), 141/70 -> 2 col tiles.
  EXPECT_EQ(stats.tiles_total, 6u);
}

TEST(OffloadFunctional, TinyMatrixSingleTile) {
  FunctionalOffloadConfig cfg;
  cfg.knobs.mt = 64;
  cfg.knobs.nt = 64;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(10, 12, 8, cfg, &stats);
  EXPECT_EQ(stats.tiles_total, 1u);
}

TEST(OffloadFunctional, AlphaPlusOne) {
  Matrix<double> a(96, 16), b(16, 96), c(96, 96), c_ref(96, 96);
  util::fill_hpl_matrix(a.view(), 7);
  util::fill_hpl_matrix(b.view(), 8);
  c.fill(1.0);
  c_ref.fill(1.0);
  blas::gemm_ref<double>(2.0, a.view(), b.view(), 1.0, c_ref.view(),
                         blas::mk::Accumulate::kUnfused);
  offload_gemm_functional(2.0, a.view(), b.view(), c.view(), {});
  EXPECT_LT(util::max_abs_diff<double>(c.view(), c_ref.view()), 1e-11);
}

TEST(OffloadFunctional, RepeatedRunsDeterministicResult) {
  Matrix<double> a(100, 20), b(20, 100), c1(100, 100), c2(100, 100);
  util::fill_hpl_matrix(a.view(), 4);
  util::fill_hpl_matrix(b.view(), 5);
  c1.fill(0.0);
  c2.fill(0.0);
  FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = true;
  offload_gemm_functional(1.0, a.view(), b.view(), c1.view(), cfg);
  offload_gemm_functional(1.0, a.view(), b.view(), c2.view(), cfg);
  EXPECT_EQ(util::max_abs_diff<double>(c1.view(), c2.view()), 0.0);
}

TEST(OffloadFunctional, EveryKernelPinBitwiseEqualsGemmTiled) {
  // The engine packs at the tile geometry gemm_tiled dispatches for
  // knobs.microkernel, so card tiles and host steals run that kernel; with
  // one k-chunk every tile is bitwise gemm_tiled's answer, whatever the pin.
  struct Shape {
    std::size_t m, n, k;
  };
  for (const int id : {0, 308, 408, 608, 806, 412, 808}) {
    for (const Shape s : {Shape{97, 131, 64}, {64, 64, 64}, {150, 20, 17}}) {
      Matrix<double> a(s.m, s.k), b(s.k, s.n), want(s.m, s.n);
      util::fill_hpl_matrix(a.view(), 11);
      util::fill_hpl_matrix(b.view(), 12);
      util::fill_hpl_matrix(want.view(), 13);
      Matrix<double> c0(s.m, s.n);
      for (std::size_t r = 0; r < s.m; ++r)
        for (std::size_t cc = 0; cc < s.n; ++cc) c0(r, cc) = want(r, cc);
      blas::GemmOptions go;
      go.chunk_k = s.k;
      go.kernel = id;
      blas::gemm_tiled<double>(-1.0, a.view(), b.view(), 1.0, want.view(), go);
      for (const int cards : {1, 2}) {
        for (const bool steals : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << "kernel " << id << " shape " << s.m << "x" << s.n
                       << "x" << s.k << " cards " << cards << " steals "
                       << steals);
          Matrix<double> c(s.m, s.n);
          for (std::size_t r = 0; r < s.m; ++r)
            for (std::size_t cc = 0; cc < s.n; ++cc) c(r, cc) = c0(r, cc);
          FunctionalOffloadConfig cfg;
          cfg.knobs.microkernel = id;
          cfg.cards = cards;
          cfg.host_steals = steals;
          const auto stats =
              offload_gemm_functional(-1.0, a.view(), b.view(), c.view(), cfg);
          EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
          for (std::size_t r = 0; r < s.m; ++r)
            ASSERT_EQ(std::memcmp(c.data() + r * c.ld(),
                                  want.data() + r * want.ld(),
                                  s.n * sizeof(double)),
                      0)
                << "row " << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A resident engine serving many calls
// ---------------------------------------------------------------------------

TEST(OffloadFunctional, OneEngineServesManyCallsOfVariedShapes) {
  // Ragged, single-tile, k = 1, and m or n below one tile, back to back on
  // one engine: reused pool, reused product buffers. Each answer is bitwise
  // gemm_tiled's with one k-chunk.
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {{173, 141, 29}, {10, 12, 8}, {96, 80, 1},
                          {20, 150, 17},  {150, 20, 33}, {64, 64, 64},
                          {1, 1, 1},      {130, 97, 64}};
  for (const int cards : {1, 2}) {
    for (const bool steals : {true, false}) {
      FunctionalOffloadConfig cfg;
      cfg.knobs.mt = 32;
      cfg.knobs.nt = 48;
      cfg.cards = cards;
      cfg.host_steals = steals;
      OffloadEngine engine(cfg);
      EXPECT_GE(engine.workers(), static_cast<std::size_t>(cards));
      std::size_t tiles = 0;
      for (int call = 0; call < 52; ++call) {
        const Shape s = shapes[call % std::size(shapes)];
        SCOPED_TRACE(testing::Message()
                     << "cards " << cards << " steals " << steals << " call "
                     << call << " shape " << s.m << "x" << s.n << "x" << s.k);
        Matrix<double> a(s.m, s.k), b(s.k, s.n), c(s.m, s.n), want(s.m, s.n);
        util::fill_hpl_matrix(a.view(), 100 + call);
        util::fill_hpl_matrix(b.view(), 200 + call);
        util::fill_hpl_matrix(c.view(), 300 + call);
        util::fill_hpl_matrix(want.view(), 300 + call);
        const double alpha = call % 2 == 0 ? -1.0 : 0.5;
        blas::GemmOptions go;
        go.chunk_k = s.k;
        blas::gemm_tiled<double>(alpha, a.view(), b.view(), 1.0, want.view(),
                                 go);
        const auto stats = engine.gemm(alpha, a.view(), b.view(), c.view());
        EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
        if (!steals) {
          EXPECT_EQ(stats.tiles_host, 0u);
        }
        tiles += stats.tiles_total;
        ASSERT_EQ(util::max_abs_diff<double>(c.view(), want.view()), 0.0);
      }
      EXPECT_GT(tiles, 52u);
    }
  }
}

TEST(OffloadFunctional, EngineDestroyedRightAfterConstructionOrACall) {
  for (const int cards : {1, 2}) {
    FunctionalOffloadConfig cfg;
    cfg.cards = cards;
    { OffloadEngine idle(cfg); }
    Matrix<double> a(70, 9), b(9, 70), c(70, 70);
    util::fill_hpl_matrix(a.view(), 1);
    util::fill_hpl_matrix(b.view(), 2);
    c.fill(0.0);
    {
      OffloadEngine once(cfg);
      const auto stats = once.gemm(1.0, a.view(), b.view(), c.view());
      EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
    }
  }
  FunctionalOffloadConfig none;
  none.cards = 0;
  EXPECT_THROW(OffloadEngine{none}, std::invalid_argument);
}

TEST(OffloadFunctional, BesideTaskRunsOnceAndItsThrowIsForwarded) {
  // A call with a task beside it gives the plain call's bits and runs the
  // task exactly once; a throwing task leaves the product complete, is
  // rethrown after the join, and the engine serves the next call.
  const std::size_t m = 150, n = 130, k = 32;
  Matrix<double> a(m, k), b(k, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  for (const bool steals : {false, true}) {
    FunctionalOffloadConfig cfg;
    cfg.cards = 2;
    cfg.host_steals = steals;
    cfg.knobs.mt = cfg.knobs.nt = 24;
    OffloadEngine engine(cfg);
    Matrix<double> plain(m, n);
    util::fill_hpl_matrix(plain.view(), 3);
    engine.gemm(-1.0, a.view(), b.view(), plain.view());
    for (const bool throws : {false, true, false}) {
      Matrix<double> c(m, n);
      util::fill_hpl_matrix(c.view(), 3);
      int runs = 0;
      const auto call = [&] {
        engine.gemm(-1.0, a.view(), b.view(), c.view(), [&] {
          ++runs;
          if (throws) throw std::runtime_error("panel");
        });
      };
      if (throws) {
        EXPECT_THROW(call(), std::runtime_error);
      } else {
        call();
      }
      EXPECT_EQ(runs, 1);
      for (std::size_t r = 0; r < m; ++r)
        ASSERT_EQ(std::memcmp(c.data() + r * c.ld(),
                              plain.data() + r * plain.ld(),
                              n * sizeof(double)),
                  0)
            << "steals " << steals << " throws " << throws << " row " << r;
    }
  }
}

TEST(OffloadFunctional, ReusedEngineHybridSolveMatchesOneShot) {
  // A whole look-ahead factorization on one engine's pool, twice, against
  // the one-shot engine per update without look-ahead: identical factors
  // and pivots.
  const std::size_t n = 200, nb = 32;
  FunctionalOffloadConfig cfg;
  cfg.knobs.mt = 40;
  cfg.knobs.nt = 24;
  cfg.cards = 2;
  cfg.host_steals = true;
  Matrix<double> want(n, n);
  util::fill_hpl_matrix(want.view(), 17);
  std::vector<std::size_t> want_piv(n);
  const auto one_shot = [&](util::MatrixView<const double> l21,
                            util::MatrixView<const double> u,
                            util::MatrixView<double> a22) {
    offload_gemm_functional(-1.0, l21, u, a22, cfg);
  };
  ASSERT_TRUE(
      blas::getrf_stages<double>(want.view(), want_piv, nb, {}, one_shot));
  OffloadEngine engine(cfg);
  blas::PanelOptions panel;
  panel.pool = &engine.pool();
  for (int run = 0; run < 2; ++run) {
    Matrix<double> a(n, n);
    util::fill_hpl_matrix(a.view(), 17);
    std::vector<std::size_t> piv(n);
    blas::StageLoopStats stats;
    ASSERT_TRUE(blas::getrf_stages<double>(a.view(), piv, nb, panel,
                                           OffloadUpdate{engine}, &stats));
    EXPECT_EQ(stats.lookahead_panels, (n + nb - 1) / nb - 1);
    EXPECT_EQ(piv, want_piv) << "run " << run;
    for (std::size_t r = 0; r < n; ++r)
      ASSERT_EQ(std::memcmp(a.data() + r * a.ld(), want.data() + r * want.ld(),
                            n * sizeof(double)),
                0)
          << "run " << run << " row " << r;
  }
}

}  // namespace
}  // namespace xphi::core
