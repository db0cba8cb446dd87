#include "core/hybrid_functional.h"

#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "util/rng.h"

namespace xphi::core {

HybridFunctionalResult run_functional_hybrid_hpl(
    const HybridFunctionalConfig& cfg, std::uint64_t seed) {
  HybridFunctionalResult res;
  const std::size_t n = cfg.n;

  util::Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), seed);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv(n);

  // One engine serves every trailing update of the factorization, and its
  // pool runs the host side: the panels, the swaps and the TRSM.
  OffloadEngine engine(cfg.offload);
  blas::PanelOptions panel;
  panel.pool = &engine.pool();
  const OffloadUpdate update{engine};
  // The schemes differ only in the stage loop's schedule: without
  // look-ahead the update goes in as a plain callable, which getrf_stages
  // runs one whole stage at a time.
  blas::StageLoopStats stats;
  const bool factored =
      cfg.scheme == FunctionalScheme::kBasic
          ? blas::getrf_stages<double>(a.view(), ipiv, cfg.nb, panel, update,
                                       &stats)
          : blas::getrf_stages<double>(
                a.view(), ipiv, cfg.nb, panel,
                [&](auto l21, auto u, auto a22) { update(l21, u, a22); });
  res.lookahead_panels = stats.lookahead_panels;
  if (!factored) return res;

  // Solve and check.
  std::vector<double> b(n), x(n);
  util::Rng rng(seed ^ 0xb0b);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  blas::lu_solve_vector<double>(a.view(), ipiv, x);
  res.residual = blas::hpl_residual<double>(orig.view(), x, b);
  res.ok = res.residual < blas::kHplResidualThreshold;
  return res;
}

}  // namespace xphi::core
