#include "hpl/mixed.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "blas/getrf.h"
#include "blas/lu_kernels.h"
#include "blas/residual.h"
#include "util/rng.h"

namespace xphi::hpl {

namespace {

using util::Matrix;
using util::MatrixView;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// r = b - A x in fp64 and the scaled residual, with exactly the loop order
/// of blas::hpl_residual<double> — the returned scalar IS the gate value.
double residual_vector(MatrixView<const double> a, std::span<const double> x,
                       std::span<const double> b, double a_inf,
                       std::vector<double>& r) {
  const std::size_t n = a.rows();
  blas::ResidualNorms norms;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0;
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
    r[i] = b[i] - acc;
    norms.add(acc, x[i], b[i]);
  }
  return norms.scaled(a_inf, n, std::numeric_limits<double>::epsilon());
}

}  // namespace

bool factor_mixed(MatrixView<const double> a, MixedFactors& out,
                  const MixedOptions& options) {
  const std::size_t n = a.rows();
  out.lu = Matrix<float>(n, a.cols());
  for (std::size_t r = 0; r < n; ++r) {
    const double* src = a.row(r);
    float* dst = out.lu.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c)
      dst[c] = static_cast<float>(src[c]);
  }
  out.ipiv.assign(n, 0);
  return blas::getrf_blocked<float>(out.lu.view(), out.ipiv, options.nb,
                                    options.pool);
}

MixedSolveResult refine_mixed(MatrixView<const double> a,
                              std::span<const double> b,
                              const MixedFactors& factors,
                              const MixedOptions& options) {
  MixedSolveResult res;
  const std::size_t n = a.rows();
  const auto t0 = std::chrono::steady_clock::now();

  // Initial solve through the fp32 factors (fp32 in, fp64 out — the widening
  // is exact, every float is a double).
  std::vector<float> work(n);
  for (std::size_t i = 0; i < n; ++i) work[i] = static_cast<float>(b[i]);
  blas::lu_solve_vector<float>(factors.lu.view(), factors.ipiv, work);
  res.x.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    res.x[i] = static_cast<double>(work[i]);

  const double a_inf = util::norm_inf<double>(a);
  std::vector<double> r(n);
  for (int it = 0;; ++it) {
    res.residual = residual_vector(a, res.x, b, a_inf, r);
    res.trace.push_back(res.residual);
    if (res.residual < blas::kHplResidualThreshold) {
      res.ok = true;
      break;
    }
    if (it >= options.max_refine_iters) break;  // cap hit: res.ok stays false
    for (std::size_t i = 0; i < n; ++i) work[i] = static_cast<float>(r[i]);
    blas::lu_solve_vector<float>(factors.lu.view(), factors.ipiv, work);
    for (std::size_t i = 0; i < n; ++i)
      res.x[i] += static_cast<double>(work[i]);
    ++res.iterations;
  }
  res.refine_seconds = seconds_since(t0);
  return res;
}

MixedSolveResult refine_mixed_or_fp64(MatrixView<const double> a,
                                      std::span<const double> b,
                                      const MixedFactors& factors,
                                      const MixedOptions& options) {
  MixedSolveResult res = refine_mixed(a, b, factors, options);
  if (res.ok) return res;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = a.rows();
  Matrix<double> lu(n, n);
  for (std::size_t r = 0; r < n; ++r)
    std::copy_n(a.row(r), n, lu.data() + r * lu.ld());
  std::vector<std::size_t> ipiv(n);
  if (blas::getrf_blocked<double>(lu.view(), ipiv, options.nb,
                                  options.pool)) {
    res.x.assign(b.begin(), b.end());
    blas::lu_solve_vector<double>(lu.view(), ipiv, res.x);
    res.residual = blas::hpl_residual<double>(a, res.x, b);
    res.trace.push_back(res.residual);
    res.ok = res.residual < blas::kHplResidualThreshold;
  }
  res.refine_seconds += seconds_since(t0);
  return res;
}

MixedSolveResult solve_mixed(MatrixView<const double> a,
                             std::span<const double> b,
                             const MixedOptions& options) {
  MixedFactors factors;
  const auto t0 = std::chrono::steady_clock::now();
  const bool factored = factor_mixed(a, factors, options);
  const double factor_seconds = seconds_since(t0);
  if (!factored) {
    MixedSolveResult res;
    res.factor_seconds = factor_seconds;
    return res;
  }
  MixedSolveResult res = refine_mixed_or_fp64(a, b, factors, options);
  res.factor_seconds = factor_seconds;
  return res;
}

MixedSolveResult solve_mixed_seeded(std::size_t n, std::uint64_t seed,
                                    const MixedOptions& options) {
  Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), seed);
  std::vector<double> b(n);
  util::Rng brng(seed ^ 0xb0b);
  for (auto& v : b) v = brng.next_centered();
  return solve_mixed(a.view(), b, options);
}

}  // namespace xphi::hpl
