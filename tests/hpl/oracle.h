// Sequential oracle for distributed HPL runs, shared by the hpl tests.
// run_distributed_hpl checks its answer once, over the distributed data; the
// tests check that answer again here, sequentially, on the factors every
// rank wrote into the result.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "blas/lu_kernels.h"
#include "hpl/distributed.h"
#include "hpl/mixed.h"
#include "util/rng.h"

namespace xphi::hpl {

/// The seeded HPL system every driver in the repo solves: util::hpl_entry
/// matrix, Rng(seed ^ 0xb0b) right-hand side.
struct System {
  util::Matrix<double> a;
  std::vector<double> b;
};

inline System make_system(std::size_t n, std::uint64_t seed) {
  System s{util::Matrix<double>(n, n), std::vector<double>(n)};
  util::fill_hpl_matrix(s.a.view(), seed);
  util::Rng rng(seed ^ 0xb0b);
  for (auto& v : s.b) v = rng.next_centered();
  return s;
}

/// Max |x_oracle - res.x|, where x_oracle solves the run's system on
/// res.factored / res.ipiv: one LU solve for fp64, or — for kMixed — the
/// factors narrowed back to fp32 (exact) and the shared-memory refinement,
/// refine_mixed, against the fp64 system with the run's iteration cap.
inline double gathered_solve_agreement(const DistributedHplResult& res,
                                       std::uint64_t seed,
                                       const DistributedHplOptions& opt) {
  const std::size_t n = res.x.size();
  const System sys = make_system(n, seed);
  std::vector<double> x;
  if (opt.precision == Precision::kFp64) {
    x = sys.b;
    blas::lu_solve_vector<double>(res.factored.view(), res.ipiv, x);
  } else {
    MixedFactors factors;
    factors.lu = util::Matrix<float>(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        factors.lu(r, c) = static_cast<float>(res.factored(r, c));
    factors.ipiv = res.ipiv;
    MixedOptions mo;
    mo.max_refine_iters = opt.refine_max_iters;
    x = refine_mixed(sys.a.view(), sys.b, factors, mo).x;
  }
  double agreement = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::abs(x[i] - res.x[i]);
    if (!(d <= agreement)) agreement = d;  // a NaN sticks
  }
  return agreement;
}

}  // namespace xphi::hpl
