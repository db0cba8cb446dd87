// Mixed-precision HPL (hpl/mixed.h + Precision::kMixed in hpl/distributed.h):
// the fp32 factorization must match the sequential float oracle bitwise, the
// fp64 refinement must pass the UNRELAXED residual gate, the whole solve must
// be deterministic (bitwise x, verbatim refinement trace), and — the chaos
// contract — net faults, a slow rank and a dead offload card must not change
// a single bit of the solution or the refinement schedule.
#include "hpl/mixed.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "fault/injector.h"
#include "hpl/distributed.h"
#include "oracle.h"

namespace xphi::hpl {
namespace {

using fault::Injector;
using fault::InjectorConfig;

/// Sequential fp32 oracle: demote then factor with the float instantiation
/// of the blocked driver — the reference every mixed factor path must
/// reproduce bit for bit.
bool float_oracle(const util::Matrix<double>& a, std::size_t nb,
                  util::Matrix<float>& lu, std::vector<std::size_t>& ipiv) {
  const std::size_t n = a.rows();
  lu = util::Matrix<float>(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      lu(r, c) = static_cast<float>(a(r, c));
  ipiv.assign(n, 0);
  return blas::getrf_blocked<float>(lu.view(), ipiv, nb);
}

bool bitwise_equal_f(util::MatrixView<const float> x,
                     util::MatrixView<const float> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c)
      if (std::bit_cast<std::uint32_t>(x(r, c)) !=
          std::bit_cast<std::uint32_t>(y(r, c)))
        return false;
  return true;
}

TEST(Mixed, FactorMatchesSequentialFloatOracle) {
  const std::size_t n = 96, nb = 16;
  const System sys = make_system(n, 42);
  MixedOptions mo;
  mo.nb = nb;
  MixedFactors f;
  ASSERT_TRUE(factor_mixed(sys.a.view(), f, mo));

  util::Matrix<float> lu;
  std::vector<std::size_t> ipiv;
  ASSERT_TRUE(float_oracle(sys.a, nb, lu, ipiv));
  EXPECT_EQ(f.ipiv, ipiv);
  EXPECT_TRUE(bitwise_equal_f(f.lu.view(), lu.view()));
}

TEST(Mixed, SolvePassesUnrelaxedResidualGate) {
  // The acceptance contract: the mixed solve is held to the SAME scaled
  // residual gate as fp64 HPL. The reported residual must be exactly the
  // standard fp64 evaluation of the returned x.
  for (const std::size_t n : {64u, 96u, 130u}) {  // incl. ragged last block
    const System sys = make_system(n, 42);
    MixedOptions mo;
    mo.nb = 32;
    const MixedSolveResult res = solve_mixed(sys.a.view(), sys.b, mo);
    ASSERT_TRUE(res.ok) << "n=" << n;
    EXPECT_LT(res.residual, blas::kHplResidualThreshold);
    EXPECT_EQ(res.residual, blas::hpl_residual<double>(sys.a.view(), res.x,
                                                       sys.b))
        << "n=" << n;
    // fp32 factors of the well-conditioned HPL matrix converge in a few
    // corrections; the trace logs one residual per evaluation (iterations
    // corrections + the final value).
    EXPECT_GE(res.iterations, 1);
    EXPECT_LE(res.iterations, 10);
    EXPECT_EQ(res.trace.size(), static_cast<std::size_t>(res.iterations) + 1);
    EXPECT_EQ(res.trace.back(), res.residual);
  }
}

TEST(Mixed, SeededSolveIsDeterministic) {
  const MixedSolveResult a = solve_mixed_seeded(96, 42);
  const MixedSolveResult b = solve_mixed_seeded(96, 42);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.x, b.x);          // bitwise: exact double equality
  EXPECT_EQ(a.trace, b.trace);  // verbatim refinement schedule
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Mixed, DivergenceCapReportsNotOk) {
  // A singular-ish system can't pass the gate: the deterministic schedule
  // must stop at the cap and say so rather than loop or lie.
  const std::size_t n = 32;
  util::Matrix<double> a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = 1.0 + 1e-14 * (r == c);
  std::vector<double> b(n, 1.0);
  MixedOptions mo;
  mo.nb = 8;
  mo.max_refine_iters = 3;
  const MixedSolveResult res = solve_mixed(a.view(), b, mo);
  EXPECT_FALSE(res.ok);
  EXPECT_LE(res.iterations, 3);
}

TEST(Mixed, StalledRefinementFallsBackToFp64) {
  // On this n = 128 HPL matrix the fp32 refinement stalls at its cap.
  // refine_mixed reports the stall; solve_mixed then factors A in fp64, as
  // LAPACK's DSGESV does, and its answer is the fp64 solve's, bit for bit,
  // and passes the unrelaxed gate.
  const std::size_t n = 128;
  const std::uint64_t seed = 9667988852215289810ull;
  const System sys = make_system(n, seed);
  MixedOptions mo;
  mo.nb = 32;
  MixedFactors f;
  ASSERT_TRUE(factor_mixed(sys.a.view(), f, mo));
  const MixedSolveResult stalled = refine_mixed(sys.a.view(), sys.b, f, mo);
  EXPECT_FALSE(stalled.ok);
  EXPECT_EQ(stalled.iterations, mo.max_refine_iters);

  const MixedSolveResult res = solve_mixed_seeded(n, seed, mo);
  ASSERT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
  EXPECT_EQ(res.iterations, mo.max_refine_iters);
  EXPECT_EQ(res.trace.size(), static_cast<std::size_t>(res.iterations) + 2);
  EXPECT_EQ(res.trace.back(), res.residual);

  util::Matrix<double> lu(n, n);
  util::fill_hpl_matrix(lu.view(), seed);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(lu.view(), ipiv, mo.nb));
  std::vector<double> x = sys.b;
  blas::lu_solve_vector<double>(lu.view(), ipiv, x);
  EXPECT_EQ(res.x, x);
}

TEST(Mixed, NonFiniteFactorsFailTheGate) {
  // NaN factors give an all-NaN x. The refinement residual must not skip
  // the NaN entries and pass: every evaluation fails, and so does the solve.
  const std::size_t n = 32;
  const System sys = make_system(n, 42);
  MixedFactors f;
  ASSERT_TRUE(factor_mixed(sys.a.view(), f, {}));
  f.lu.fill(std::numeric_limits<float>::quiet_NaN());
  MixedOptions mo;
  mo.max_refine_iters = 2;
  const MixedSolveResult res = refine_mixed(sys.a.view(), sys.b, f, mo);
  EXPECT_FALSE(res.ok);
  for (const double r : res.trace)
    EXPECT_FALSE(r < blas::kHplResidualThreshold) << r;
}

// ---------------------------------------------------------------------------
// Distributed mixed (Precision::kMixed through the 2D block-cyclic fabric)
// ---------------------------------------------------------------------------

TEST(MixedDistributed, FactorsMatchSequentialFloatOracleWidenedExact) {
  const std::size_t n = 64, nb = 8;
  DistributedHplOptions opt;
  opt.precision = Precision::kMixed;
  const auto res = run_distributed_hpl(n, nb, Grid{2, 2}, 5, opt);
  ASSERT_TRUE(res.ok);

  util::Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 5);
  util::Matrix<float> lu;
  std::vector<std::size_t> ipiv;
  ASSERT_TRUE(float_oracle(a, nb, lu, ipiv));
  EXPECT_EQ(res.ipiv, ipiv);
  // result.factored carries the fp32 factors widened to double — widening
  // is exact, so the comparison is bitwise, not a tolerance.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      ASSERT_EQ(res.factored(r, c), static_cast<double>(lu(r, c)))
          << "(" << r << "," << c << ")";
}

TEST(MixedDistributed, SolutionPassesUnrelaxedGateOnEveryGrid) {
  for (auto grid : {Grid{1, 1}, Grid{2, 2}, Grid{2, 3}, Grid{3, 1}}) {
    DistributedHplOptions opt;
    opt.precision = Precision::kMixed;
    const auto res = run_distributed_hpl(72, 12, grid, 33, opt);
    ASSERT_TRUE(res.ok) << grid.p << "x" << grid.q;
    EXPECT_LT(res.residual, blas::kHplResidualThreshold);
    EXPECT_GE(res.refine_iterations, 1);
    ASSERT_FALSE(res.refine_trace.empty());
    // The trace logs the distributed (allreduced) residual, which is the
    // gate value; the sequential evaluation of the same x is the same
    // quantity up to summation order, and both must pass.
    EXPECT_EQ(res.refine_trace.back(), res.residual);
    const System sys = make_system(72, 33);
    const double seq = blas::hpl_residual<double>(sys.a.view(), res.x, sys.b);
    EXPECT_LT(seq, blas::kHplResidualThreshold);
    EXPECT_LT(seq, 4 * res.residual + 1.0);
    EXPECT_LT(res.residual, 4 * seq + 1.0);
  }
}

TEST(MixedDistributed, DeterministicAndAgreesWithSharedSolver) {
  // Same run twice: bitwise-identical everything (the determinism contract
  // the chaos suite leans on). Against the shared-memory mixed solver the x
  // bits legitimately differ (the distributed residual r is an allreduce of
  // partial sums), but a sequential refinement on the gathered factors must
  // agree to refinement accuracy, and the solutions solve the same system.
  const std::size_t n = 64, nb = 8;
  DistributedHplOptions opt;
  opt.precision = Precision::kMixed;
  const auto a = run_distributed_hpl(n, nb, Grid{2, 2}, 42, opt);
  const auto b = run_distributed_hpl(n, nb, Grid{2, 2}, 42, opt);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.refine_trace, b.refine_trace);
  EXPECT_EQ(util::max_abs_diff<double>(a.factored.view(), b.factored.view()),
            0.0);
  EXPECT_LT(gathered_solve_agreement(a, 42, opt), 1e-6);

  MixedOptions mo;
  mo.nb = nb;
  const MixedSolveResult shared = solve_mixed_seeded(n, 42, mo);
  ASSERT_TRUE(shared.ok);
  const System sys = make_system(n, 42);
  EXPECT_LT(blas::hpl_residual<double>(sys.a.view(), a.x, sys.b),
            blas::kHplResidualThreshold);
  EXPECT_LT(blas::hpl_residual<double>(sys.a.view(), shared.x, sys.b),
            blas::kHplResidualThreshold);
}

TEST(MixedDistributed, Fp64PathIgnoresRefinementKnobs) {
  // Precision::kFp64 must be the exact pre-existing path: the mixed-only
  // knobs may not leak into it.
  DistributedHplOptions plain;
  DistributedHplOptions knobbed;
  knobbed.precision = Precision::kFp64;
  knobbed.refine_max_iters = 1;
  const auto a = run_distributed_hpl(64, 8, Grid{2, 2}, 17, plain);
  const auto b = run_distributed_hpl(64, 8, Grid{2, 2}, 17, knobbed);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.ipiv, b.ipiv);
  EXPECT_EQ(util::max_abs_diff<double>(a.factored.view(), b.factored.view()),
            0.0);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_EQ(b.refine_iterations, 0);
  EXPECT_TRUE(b.refine_trace.empty());
}

// ---------------------------------------------------------------------------
// Chaos: the refinement schedule is part of the determinism contract
// ---------------------------------------------------------------------------

TEST(MixedChaos, NetDelayDropBitwiseIdenticalSolveAndTrace) {
  DistributedHplOptions base;
  base.precision = Precision::kMixed;
  const auto clean = run_distributed_hpl(72, 12, Grid{2, 2}, 19, base);
  ASSERT_TRUE(clean.ok);

  InjectorConfig fc;
  fc.seed = 3;
  fc.net = {.delay = 0.2, .drop = 0.1, .delay_us = 100};
  Injector inj(fc);
  DistributedHplOptions opt = base;
  opt.injector = &inj;
  const auto faulted = run_distributed_hpl(72, 12, Grid{2, 2}, 19, opt);

  ASSERT_TRUE(faulted.ok);
  EXPECT_GT(inj.fired(), 0u);
  EXPECT_EQ(faulted.ipiv, clean.ipiv);
  EXPECT_EQ(util::max_abs_diff<double>(faulted.factored.view(),
                                       clean.factored.view()),
            0.0);
  EXPECT_EQ(faulted.x, clean.x);
  EXPECT_EQ(faulted.refine_trace, clean.refine_trace);
  EXPECT_EQ(faulted.refine_iterations, clean.refine_iterations);
  EXPECT_EQ(faulted.residual, clean.residual);
}

TEST(MixedChaos, SlowRankBitwiseIdenticalSolveAndTrace) {
  DistributedHplOptions base;
  base.precision = Precision::kMixed;
  const auto clean = run_distributed_hpl(60, 12, Grid{2, 2}, 31, base);
  ASSERT_TRUE(clean.ok);

  InjectorConfig fc;
  fc.slow_rank = 1;
  fc.slow_rank_us = 200;
  Injector inj(fc);
  DistributedHplOptions opt = base;
  opt.injector = &inj;
  const auto faulted = run_distributed_hpl(60, 12, Grid{2, 2}, 31, opt);

  ASSERT_TRUE(faulted.ok);
  EXPECT_EQ(faulted.x, clean.x);
  EXPECT_EQ(faulted.refine_trace, clean.refine_trace);
  EXPECT_EQ(faulted.residual, clean.residual);
}

TEST(MixedChaos, DeadCardMidFactorBitwiseIdenticalSolveAndTrace) {
  // The full acceptance scenario: mixed factor through the offload engine
  // (fp32 operands widened through the fp64 engine, exactly), net faults
  // armed AND a card dying mid-factor in every rank's engine — survivors
  // absorb its tiles and nothing in the solution or the refinement
  // schedule may move.
  DistributedHplOptions base;
  base.precision = Precision::kMixed;
  base.use_offload_engine = true;
  base.offload.knobs.mt = base.offload.knobs.nt = 24;
  base.offload.cards = 2;
  const auto clean = run_distributed_hpl(72, 24, Grid{2, 2}, 23, base);
  ASSERT_TRUE(clean.ok);

  InjectorConfig fc;
  fc.seed = 2026;
  fc.net = {.delay = 0.15, .drop = 0.1, .delay_us = 100};
  fc.dma_request = {.drop = 0.1, .corrupt = 0.1, .delay_us = 100};
  fc.dma_result = {.drop = 0.1, .delay_us = 100};
  fc.dead_card = 1;
  fc.card_death_after = 0;  // dies on its first dequeue, mid-factor
  Injector inj(fc);
  DistributedHplOptions opt = base;
  opt.injector = &inj;
  opt.offload.injector = &inj;
  opt.offload.max_retries = 6;
  opt.offload.retry_timeout_ms = 4;
  const auto faulted = run_distributed_hpl(72, 24, Grid{2, 2}, 23, opt);

  ASSERT_TRUE(faulted.ok);
  EXPECT_GT(inj.fired(), 0u);
  EXPECT_EQ(faulted.ipiv, clean.ipiv);
  EXPECT_EQ(util::max_abs_diff<double>(faulted.factored.view(),
                                       clean.factored.view()),
            0.0);
  EXPECT_EQ(faulted.x, clean.x);
  EXPECT_EQ(faulted.refine_trace, clean.refine_trace);
  EXPECT_EQ(faulted.refine_iterations, clean.refine_iterations);
  EXPECT_EQ(faulted.residual, clean.residual);
}

}  // namespace
}  // namespace xphi::hpl
