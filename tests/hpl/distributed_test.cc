#include "hpl/distributed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "blas/getrf.h"
#include "blas/microkernel/registry.h"
#include "blas/residual.h"
#include "oracle.h"
#include "trace/timeline.h"

namespace xphi::hpl {
namespace {

TEST(DistributedHpl, SingleRankMatchesSequentialOracle) {
  const std::size_t n = 48, nb = 8;
  const auto res = run_distributed_hpl(n, nb, Grid{1, 1}, 11);
  ASSERT_TRUE(res.ok);

  util::Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 11);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, nb));
  EXPECT_EQ(res.ipiv, ipiv);
  EXPECT_LT(util::max_abs_diff<double>(res.factored.view(), a.view()), 1e-10);
}

TEST(DistributedHpl, TwoByTwoGridMatchesOracle) {
  const std::size_t n = 64, nb = 8;
  const auto res = run_distributed_hpl(n, nb, Grid{2, 2}, 5);
  ASSERT_TRUE(res.ok);

  util::Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 5);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, nb));
  EXPECT_EQ(res.ipiv, ipiv);
  EXPECT_LT(util::max_abs_diff<double>(res.factored.view(), a.view()), 1e-9);
}

TEST(DistributedHpl, ResidualUnderThreshold2x2) {
  const auto res = run_distributed_hpl(96, 12, Grid{2, 2}, 7);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
}

TEST(DistributedHpl, RectangularGrids) {
  // 1xQ (row of processes) and Px1 (column) exercise the degenerate
  // broadcast and swap paths.
  EXPECT_TRUE(run_distributed_hpl(60, 10, Grid{1, 3}, 3).ok);
  EXPECT_TRUE(run_distributed_hpl(60, 10, Grid{3, 1}, 3).ok);
}

TEST(DistributedHpl, RaggedLastBlock) {
  // n not a multiple of nb: the final ragged panel crosses every code path.
  const auto res = run_distributed_hpl(70, 12, Grid{2, 2}, 9);
  EXPECT_TRUE(res.ok);
}

TEST(DistributedHpl, UnbalancedBlockCounts) {
  // 5 blocks over 2x3: some ranks own more blocks than others.
  const auto res = run_distributed_hpl(80, 16, Grid{2, 3}, 13);
  EXPECT_TRUE(res.ok);
}

TEST(DistributedHpl, MatchesOracleOnBiggerGrid) {
  const std::size_t n = 90, nb = 10;
  const auto res = run_distributed_hpl(n, nb, Grid{3, 2}, 21);
  ASSERT_TRUE(res.ok);
  util::Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 21);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, nb));
  EXPECT_EQ(res.ipiv, ipiv);
  EXPECT_LT(util::max_abs_diff<double>(res.factored.view(), a.view()), 1e-9);
}

TEST(DistributedHpl, DistributedSolveAgreesWithGatheredSolve) {
  for (auto grid : {Grid{1, 1}, Grid{2, 2}, Grid{2, 3}, Grid{3, 1}}) {
    const auto res = run_distributed_hpl(84, 12, grid, 33);
    ASSERT_TRUE(res.ok);
    // The block forward/back substitution over the distributed factors must
    // reproduce the gathered solve to roundoff.
    EXPECT_LT(gathered_solve_agreement(res, 33, {}), 1e-10)
        << grid.p << "x" << grid.q;
    EXPECT_EQ(res.x.size(), 84u);
  }
}

TEST(DistributedHpl, DistributedSolutionSolvesTheSystem) {
  const std::size_t n = 72;
  const auto res = run_distributed_hpl(n, 8, Grid{2, 2}, 55);
  ASSERT_TRUE(res.ok);
  // Check Ax = b directly with the distributed x.
  const System sys = make_system(n, 55);
  EXPECT_LT(blas::hpl_residual<double>(sys.a.view(), res.x, sys.b),
            blas::kHplResidualThreshold);
}

TEST(DistributedHpl, HybridOffloadEngineMatchesPlainUpdate) {
  // Running every rank's trailing update through the functional offload
  // engine (queues + card threads + stealing) must not change the numerics.
  DistributedHplOptions opt;
  opt.use_offload_engine = true;
  opt.offload.knobs.mt = 24;
  opt.offload.knobs.nt = 24;
  opt.offload.host_steals = true;
  const auto hybrid = run_distributed_hpl(80, 16, Grid{2, 2}, 61, opt);
  const auto plain = run_distributed_hpl(80, 16, Grid{2, 2}, 61);
  ASSERT_TRUE(hybrid.ok);
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(hybrid.ipiv, plain.ipiv);
  EXPECT_LT(util::max_abs_diff<double>(hybrid.factored.view(),
                                       plain.factored.view()),
            1e-11);
}

TEST(DistributedHpl, HybridOffloadTwoCardsPerRank) {
  DistributedHplOptions opt;
  opt.use_offload_engine = true;
  opt.offload.cards = 2;
  opt.offload.knobs.mt = 20;
  opt.offload.knobs.nt = 20;
  const auto res = run_distributed_hpl(72, 12, Grid{1, 2}, 77, opt);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(gathered_solve_agreement(res, 77, opt), 1e-10);
}

// ---------------------------------------------------------------------------
// Look-ahead schemes (paper Section IV, Figure 8)
// ---------------------------------------------------------------------------

TEST(DistributedHpl, LookaheadSchemesBitwiseIdentical) {
  // The look-ahead reorders communication and splits the update into two
  // column subsets, but never changes any per-element accumulation order
  // (see gemm_tiled.h) — so the factors must match kNone bit for bit,
  // in both precisions and across non-divisible N/NB/PxQ shapes.
  struct Shape { std::size_t n, nb; Grid grid; };
  for (const Shape& sh : {Shape{70, 12, Grid{2, 2}},    // ragged last block
                          Shape{84, 16, Grid{3, 2}},    // uneven block counts
                          Shape{48, 8, Grid{1, 3}}}) {  // single process row
    for (auto precision : {Precision::kFp64, Precision::kMixed}) {
      DistributedHplOptions base;
      base.precision = precision;
      const auto none = run_distributed_hpl(sh.n, sh.nb, sh.grid, 29, base);
      ASSERT_TRUE(none.ok);
      DistributedHplOptions opt = base;
      opt.lookahead = Lookahead::kBasic;
      const auto res = run_distributed_hpl(sh.n, sh.nb, sh.grid, 29, opt);
      const auto label = [&] {
        return ::testing::Message()
               << "n=" << sh.n << " nb=" << sh.nb << " grid=" << sh.grid.p
               << "x" << sh.grid.q
               << " precision=" << precision_name(precision);
      };
      ASSERT_TRUE(res.ok) << label();
      EXPECT_EQ(res.ipiv, none.ipiv) << label();
      EXPECT_EQ(util::max_abs_diff<double>(res.factored.view(),
                                           none.factored.view()),
                0.0)
          << label();
      EXPECT_LT(gathered_solve_agreement(res, 29, opt), 1e-10) << label();
    }
  }
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a of a run's factors, pivots and distributed solution, then its
/// refinement trace (empty under kFp64).
std::uint64_t result_hash(const DistributedHplResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const util::Matrix<double>& f = r.factored;
  for (std::size_t row = 0; row < f.rows(); ++row)
    h = fnv1a(h, f.data() + row * f.ld(), f.cols() * sizeof(double));
  for (std::size_t p : r.ipiv) {
    const std::uint64_t v = p;
    h = fnv1a(h, &v, sizeof v);
  }
  h = fnv1a(h, r.x.data(), r.x.size() * sizeof(double));
  return fnv1a(h, r.refine_trace.data(),
               r.refine_trace.size() * sizeof(double));
}

TEST(DistributedHpl, FactorBitsPinnedAtParent) {
  // Hashes captured before the three look-ahead schemes shared one rank
  // stage and one panel/U transport: both schedules must keep reproducing
  // them in both precisions, so they cannot drift together. fp64
  // has one pin per GEMM contract (DESIGN.md §12): unfused on the generic
  // tier, fused on the avx2/avx512 tiers (captured when those fp64 kernels
  // started accumulating through FMA). The mixed runs factor in fp32,
  // which is unfused at every tier, so they keep one pin. The residuals
  // are the distributed (allreduced) ones, captured when the run still
  // reported them beside a second, gathered check.
  struct Pinned {
    std::size_t n, nb;
    Grid grid;
    std::uint64_t fp64_hash, fp64_fused_hash, mixed_hash;
    double fp64_residual, fp64_fused_residual, mixed_residual;
  };
  constexpr Pinned kPinned[] = {
      {70, 12, Grid{2, 2}, 0x27f6cc4d223aa0b5ull, 0x4677b618802a20daull,
       0x1e451a2c305390aeull, 0x1.92563f42f8e7bp-8, 0x1.2ef33a4d1850ep-7,
       0x1.a57eecf0d4055p-9},
      {84, 16, Grid{3, 2}, 0x6f5900ee16a433f6ull, 0xbd9fe0c24a6af44full,
       0xe3e01bcac64f1782ull, 0x1.e528006f957eap-8, 0x1.5a8a497446367p-8,
       0x1.257984984361dp+3},
      {80, 16, Grid{2, 3}, 0x545d613577706b0aull, 0xc11930f4edcc8eb4ull,
       0x35141798d004c26eull, 0x1.9d66739c25d54p-7, 0x1.4ee80fe2f483cp-7,
       0x1.a2a213dbb1a7p-10},
      {48, 8, Grid{1, 3}, 0xa3bd6d49cbd9118dull, 0x7cce42497ea19e3dull,
       0xff8c04d88ae3e89bull, 0x1.43459b92c1cb4p-7, 0x1.17a1df7bed5c4p-7,
       0x1.f3f2dd236263ep-8},
  };
  const bool fused = blas::mk::select_kernel<double>(0).accumulate() ==
                     blas::mk::Accumulate::kFused;
  for (const Pinned& pin : kPinned) {
    for (auto precision : {Precision::kFp64, Precision::kMixed}) {
      for (auto scheme : {Lookahead::kNone, Lookahead::kBasic}) {
        DistributedHplOptions opt;
        opt.precision = precision;
        opt.lookahead = scheme;
        const auto res = run_distributed_hpl(pin.n, pin.nb, pin.grid, 29, opt);
        const bool mixed = precision == Precision::kMixed;
        const std::uint64_t want = mixed   ? pin.mixed_hash
                                   : fused ? pin.fp64_fused_hash
                                           : pin.fp64_hash;
        const double want_residual = mixed   ? pin.mixed_residual
                                     : fused ? pin.fp64_fused_residual
                                             : pin.fp64_residual;
        const std::uint64_t got = result_hash(res);
        const auto label = [&] {
          return ::testing::Message()
                 << "n=" << pin.n << " nb=" << pin.nb << " grid=" << pin.grid.p
                 << "x" << pin.grid.q
                 << " precision=" << precision_name(precision)
                 << " scheme=" << static_cast<int>(scheme);
        };
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(got, want) << label() << " got=0x" << std::hex << got;
        EXPECT_EQ(res.residual, want_residual)
            << label() << " got=" << std::hexfloat << res.residual;
      }
    }
  }
}

TEST(DistributedHpl, LookaheadMatchesSequentialOracle) {
  const std::size_t n = 84, nb = 12;
  util::Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 43);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, nb));
  DistributedHplOptions opt;
  opt.lookahead = Lookahead::kBasic;
  const auto res = run_distributed_hpl(n, nb, Grid{2, 2}, 43, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.ipiv, ipiv);
  EXPECT_LT(util::max_abs_diff<double>(res.factored.view(), a.view()), 1e-9);
}

TEST(DistributedHpl, LookaheadRecordsOverlappingCommAndCompute) {
  // The point of the look-ahead: some rank's broadcast (panel or U transfer
  // wait) runs while another rank's GEMM computes. The timeline must show
  // cross-lane kBroadcast x kGemm overlap, and comm spans must land in the
  // kBroadcast/kRowSwap lanes.
  trace::Timeline tl;
  DistributedHplOptions opt;
  opt.lookahead = Lookahead::kBasic;
  opt.timeline = &tl;
  const auto res = run_distributed_hpl(240, 24, Grid{2, 2}, 71, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(tl.lanes(), 4u);  // one lane per rank
  bool has_bcast = false, has_swap = false, has_gemm = false;
  for (const auto& s : tl.spans()) {
    has_bcast |= s.kind == trace::SpanKind::kBroadcast;
    has_swap |= s.kind == trace::SpanKind::kRowSwap;
    has_gemm |= s.kind == trace::SpanKind::kGemm;
  }
  EXPECT_TRUE(has_bcast);
  EXPECT_TRUE(has_swap);
  EXPECT_TRUE(has_gemm);
  EXPECT_GT(trace::cross_lane_overlap(tl, trace::SpanKind::kBroadcast,
                                      trace::SpanKind::kGemm),
            0.0);
}

TEST(DistributedHpl, DistributedResidualAgreesWithSequentialResidual) {
  // The run's residual is allreduced and never gathers A; it must still pass
  // the HPL test and land within FP-reordering distance of the sequential
  // evaluation of the same x.
  const System sys = make_system(96, 23);
  for (auto scheme : {Lookahead::kNone, Lookahead::kBasic}) {
    DistributedHplOptions opt;
    opt.lookahead = scheme;
    const auto res = run_distributed_hpl(96, 12, Grid{2, 2}, 23, opt);
    ASSERT_TRUE(res.ok);
    const double seq = blas::hpl_residual<double>(sys.a.view(), res.x, sys.b);
    EXPECT_LT(res.residual, blas::kHplResidualThreshold);
    EXPECT_GT(res.residual, 0.0);
    // Same quantity up to summation order: within a small factor.
    EXPECT_LT(res.residual, 4 * seq + 1.0);
    EXPECT_GT(4 * res.residual + 1.0, seq);
  }
}

TEST(DistributedHpl, CommStatsExposePerRankTraffic) {
  DistributedHplOptions opt;
  opt.lookahead = Lookahead::kBasic;
  const auto res = run_distributed_hpl(72, 12, Grid{2, 2}, 37, opt);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.comm_stats.size(), 4u);
  // Exact traffic: the factors are never sent. When ranks 1-3 still sent
  // their shares to rank 0 after the solve, each sent one more message and
  // 36 * 36 * 8 = 10 368 more bytes: messages {69, 61, 53, 64}, bytes
  // {56 544, 32 952, 30 936, 57 696}.
  constexpr std::size_t kMessages[] = {69, 60, 52, 63};
  constexpr std::size_t kBytes[] = {56544, 22584, 20568, 47328};
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(res.comm_stats[r].messages_sent, kMessages[r]) << "rank " << r;
    EXPECT_EQ(res.comm_stats[r].bytes_sent, kBytes[r]) << "rank " << r;
    EXPECT_GT(res.comm_stats[r].bytes_received, 0u) << "rank " << r;
    EXPECT_GT(res.comm_stats[r].mailbox_high_water, 0u) << "rank " << r;
  }
}

TEST(DistributedHpl, LookaheadWithOffloadEngine) {
  // Look-ahead over the functional offload engine: the combination the
  // paper's multi-node hybrid runs.
  DistributedHplOptions opt;
  opt.lookahead = Lookahead::kBasic;
  opt.use_offload_engine = true;
  opt.offload.knobs.mt = 20;
  opt.offload.knobs.nt = 20;
  const auto res = run_distributed_hpl(72, 12, Grid{2, 2}, 19, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_LT(gathered_solve_agreement(res, 19, opt), 1e-10);
}

// Property sweep over grid shapes and block sizes.
class DistributedSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DistributedSweep, ResidualPasses) {
  const auto [p, q, nb] = GetParam();
  const auto res = run_distributed_hpl(72, nb, Grid{p, q}, 100 + p * 10 + q);
  EXPECT_TRUE(res.ok) << "p=" << p << " q=" << q << " nb=" << nb
                      << " residual=" << res.residual;
}

INSTANTIATE_TEST_SUITE_P(Grids, DistributedSweep,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(6, 8, 24)));

}  // namespace
}  // namespace xphi::hpl
