// Reference (naive) GEMM used as the correctness oracle for the tiled
// kernels. Deliberately simple: triple loop, no blocking.
#pragma once

#include <cmath>
#include <cstddef>

#include "blas/microkernel/kernels_decl.h"
#include "util/matrix.h"

namespace xphi::blas {

/// C = alpha * A * B + beta * C, all row-major. A is MxK, B is KxN, C is MxN.
/// Each C element is one ascending-k chain under `contract` (DESIGN.md §12):
/// kUnfused rounds every product and every sum, kFused rounds each
/// acc + a*b once (std::fma). The store is alpha*acc + beta*c either way.
/// A kernel's own contract is mk::Selection::accumulate().
template <class T>
void gemm_ref(T alpha, util::MatrixView<const T> a, util::MatrixView<const T> b,
              T beta, util::MatrixView<T> c, mk::Accumulate contract) {
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T acc{};
      if (contract == mk::Accumulate::kFused) {
        for (std::size_t p = 0; p < k; ++p)
          acc = std::fma(a(i, p), b(p, j), acc);
      } else {
        for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

}  // namespace xphi::blas
