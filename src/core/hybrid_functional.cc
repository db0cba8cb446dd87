#include "core/hybrid_functional.h"

#include <algorithm>
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

  // The schemes differ only in the stage loop's look-ahead policy: basic is
  // the pipelined schedule with one subset after the next panel's columns.
  int subsets = 0;
  if (cfg.scheme == FunctionalScheme::kBasic) subsets = 1;
  if (cfg.scheme == FunctionalScheme::kPipelined)
    subsets = std::max(1, cfg.pipeline_subsets);
  // One engine serves every trailing update of the factorization.
  OffloadEngine engine(cfg.offload);
  blas::StageLoopStats stats;
  const bool factored = blas::getrf_stages<double>(
      a.view(), ipiv, cfg.nb, {}, OffloadUpdate{engine}, subsets, &stats);
  res.lookahead_panels = stats.lookahead_panels;
  if (cfg.scheme == FunctionalScheme::kPipelined)
    res.pipelined_subsets = stats.column_updates;
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
