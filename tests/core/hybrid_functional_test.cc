#include "core/hybrid_functional.h"

#include <gtest/gtest.h>

#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "util/rng.h"

namespace xphi::core {
namespace {

TEST(HybridFunctional, LookaheadPassesResidual) {
  HybridFunctionalConfig cfg;
  cfg.n = 192;
  cfg.nb = 32;
  cfg.offload.knobs.mt = 48;
  cfg.offload.knobs.nt = 48;
  const auto res = run_functional_hybrid_hpl(cfg);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
  EXPECT_GT(res.lookahead_panels, 0u);
}

TEST(HybridFunctional, NoLookaheadPassesResidual) {
  HybridFunctionalConfig cfg;
  cfg.n = 160;
  cfg.nb = 32;
  cfg.scheme = FunctionalScheme::kNoLookahead;
  const auto res = run_functional_hybrid_hpl(cfg);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.lookahead_panels, 0u);
}

TEST(HybridFunctional, BothSchemesAgreeExactly) {
  // Figure 8's schemes reorder work, not arithmetic: identical residuals
  // for the same seed.
  HybridFunctionalConfig a;
  a.n = 128;
  a.nb = 16;
  a.scheme = FunctionalScheme::kBasic;
  HybridFunctionalConfig b = a;
  b.scheme = FunctionalScheme::kNoLookahead;
  const auto ra = run_functional_hybrid_hpl(a, 9);
  const auto rb = run_functional_hybrid_hpl(b, 9);
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_DOUBLE_EQ(ra.residual, rb.residual);
  EXPECT_EQ(ra.lookahead_panels, 7u);
  EXPECT_EQ(rb.lookahead_panels, 0u);
}

TEST(HybridFunctional, TwoCardsAndHostStealing) {
  HybridFunctionalConfig cfg;
  cfg.n = 200;
  cfg.nb = 40;
  cfg.offload.cards = 2;
  cfg.offload.host_steals = true;
  cfg.offload.knobs.mt = 40;
  cfg.offload.knobs.nt = 40;
  const auto res = run_functional_hybrid_hpl(cfg);
  EXPECT_TRUE(res.ok);
}

TEST(HybridFunctional, RaggedPanelWidth) {
  HybridFunctionalConfig cfg;
  cfg.n = 150;  // not a multiple of nb
  cfg.nb = 32;
  const auto res = run_functional_hybrid_hpl(cfg);
  EXPECT_TRUE(res.ok);
}

TEST(HybridFunctional, MatchesSequentialFactorizationResidualScale) {
  // Compare against the plain blocked factorization on the same system: both
  // are backward-stable, so residuals should be the same order of magnitude.
  const std::size_t n = 144, nb = 24;
  HybridFunctionalConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  const auto hybrid = run_functional_hybrid_hpl(cfg, 21);

  util::Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), 21);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, nb));
  std::vector<double> b(n), x(n);
  util::Rng rng(21 ^ 0xb0b);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  blas::lu_solve_vector<double>(a.view(), ipiv, x);
  const double seq_res = blas::hpl_residual<double>(orig.view(), x, b);
  ASSERT_TRUE(hybrid.ok);
  EXPECT_LT(hybrid.residual, seq_res * 50 + 1.0);
}

}  // namespace
}  // namespace xphi::core
