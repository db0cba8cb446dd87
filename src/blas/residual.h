// The HPL correctness check. A factorization "passes" when the scaled
// residual ||Ax - b||_oo / (eps * (||A||_oo * ||x||_oo + ||b||_oo) * N)
// is below 16 — the same acceptance test the benchmark in the paper runs
// after every timed solve.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "util/matrix.h"

namespace xphi::blas {

inline constexpr double kHplResidualThreshold = 16.0;

/// The max-norm reduction and the scaled value of the HPL residual, shared
/// by every evaluation of it: the sequential one below, mixed-precision
/// refinement and the allreduced distributed check. Feed row i's (A x)_i,
/// x_i and b_i to add(), in any row order. A NaN or Inf in A x or x makes
/// scaled() infinite, so the gate fails: a plain `if (v > max)` skips a
/// NaN, and an infinite ||x||_oo would scale any ||r||_oo down to 0.
struct ResidualNorms {
  double r_inf = 0, x_inf = 0, b_inf = 0;
  bool finite = true;

  void add(double ax, double x, double b) {
    const double r = std::abs(ax - b);
    const double xa = std::abs(x);
    const double ba = std::abs(b);
    finite = finite && std::isfinite(r) && std::isfinite(xa);
    if (r > r_inf) r_inf = r;
    if (xa > x_inf) x_inf = xa;
    if (ba > b_inf) b_inf = ba;
  }

  /// ||r||_oo / (eps * (a_inf * ||x||_oo + ||b||_oo) * n), or +inf when a
  /// non-finite entry was added.
  double scaled(double a_inf, std::size_t n, double eps) const {
    if (!finite) return std::numeric_limits<double>::infinity();
    const double denom =
        eps * (a_inf * x_inf + b_inf) * static_cast<double>(n);
    return denom > 0 ? r_inf / denom : r_inf;
  }
};

/// Scaled HPL residual for the solve A x = b.
/// `a` is the ORIGINAL (unfactored) matrix.
template <class T>
double hpl_residual(util::MatrixView<const T> a, std::span<const T> x,
                    std::span<const T> b) {
  const std::size_t n = a.rows();
  ResidualNorms norms;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0;
    const T* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j)
      acc += static_cast<double>(row[j]) * static_cast<double>(x[j]);
    norms.add(acc, static_cast<double>(x[i]), static_cast<double>(b[i]));
  }
  return norms.scaled(util::norm_inf<T>(a), n,
                      std::numeric_limits<T>::epsilon());
}

}  // namespace xphi::blas
