// Scenario: anatomy of the Knights Corner DGEMM kernel.
//
// Walks through the paper's Section III reasoning with the library's own
// components: the cycle-level pipeline simulation of the two basic kernels
// (why giving up one accumulator register buys back the L1 port), the L2
// blocking arithmetic, and a real packed-tile multiplication on the host
// verified against a reference GEMM.
#include <cmath>
#include <cstdio>

#include "blas/basic_kernels.h"
#include "blas/gemm_ref.h"
#include "blas/gemm_tiled.h"
#include "sim/gemm_model.h"
#include "sim/pipeline.h"
#include "util/rng.h"

int main() {
  using namespace xphi;

  std::printf("=== 1. Inner-loop pipeline: Basic Kernel 1 vs 2 ===\n\n");
  for (auto [variant, name] :
       {std::pair{sim::KernelVariant::kBasic1, "Basic Kernel 1 (31 acc)"},
        std::pair{sim::KernelVariant::kBasic2, "Basic Kernel 2 (30 acc + bcast)"},
        std::pair{sim::KernelVariant::kNoPrefetch, "no software prefetch"}}) {
    const auto r = sim::simulate_inner_loop(variant);
    std::printf("%-32s %5.2f cycles/iter, %4.1f FMAs, %4.2f stalls -> %.1f%%\n",
                name, r.cycles_per_iteration, r.fma_per_iteration,
                r.stall_cycles_per_iteration, r.issue_efficiency() * 100);
  }
  std::printf(
      "\nReading: every instruction of Kernel 1 touches memory, so the two\n"
      "L1 fills per iteration each stall the core (31/34 = 91%%). Kernel 2's\n"
      "four swizzle-FMAs free the port: 30/32 = 93.75%% and no stalls.\n");

  std::printf("\n=== 2. L2 blocking (m=120, n=32) ===\n\n");
  const sim::KncGemmModel model;
  for (std::size_t k : {240u, 300u, 340u, 400u}) {
    std::printf("k=%3zu: working set %6.0f KB -> block efficiency %.1f%%\n", k,
                model.working_set_bytes(k, sim::Precision::kDouble) / 1e3,
                model.block_efficiency(k, sim::Precision::kDouble) * 100);
  }

  std::printf("\n=== 3. Figure 2's kernels, executed via emulated MIC ops ===\n\n");
  {
    const std::size_t k2 = 240;
    util::Matrix<double> a(31, k2), b(k2, 8), c1(31, 8), c2(30, 8), ref(31, 8);
    util::fill_hpl_matrix(a.view(), 3);
    util::fill_hpl_matrix(b.view(), 4);
    c1.fill(0); c2.fill(0); ref.fill(0);
    blas::PackedA<double> pa31, pa30;
    blas::PackedB<double> pb;
    pa31.pack(a.view(), 31);
    pa30.pack(a.block(0, 0, 30, k2), 30);
    pb.pack(b.view());
    blas::basic_kernel1(pa31.tile(0), pb.tile(0), k2, c1.data(), c1.ld());
    blas::basic_kernel2(pa30.tile(0), pb.tile(0), k2, c2.data(), c2.ld());
    blas::gemm_ref<double>(1.0, a.view(), b.view(), 0.0, ref.view(),
                           blas::mk::Accumulate::kUnfused);
    double e1 = 0, e2 = 0;
    for (std::size_t r = 0; r < 31; ++r)
      for (std::size_t j = 0; j < 8; ++j) {
        e1 = std::max(e1, std::abs(c1(r, j) - ref(r, j)));
        if (r < 30) e2 = std::max(e2, std::abs(c2(r, j) - ref(r, j)));
      }
    std::printf("Basic Kernel 1 (31 acc, 1to8 broadcasts):        |diff| = %.2e\n", e1);
    std::printf("Basic Kernel 2 (30 acc, 4to8 bcast + swizzles):  |diff| = %.2e\n", e2);
  }

  std::printf("\n=== 4. The same tile format, generic host kernel ===\n\n");
  const std::size_t m = 90, n = 64, k = 300;
  util::Matrix<double> a(m, k), b(k, n), c(m, n), c_ref(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  c.fill(0);
  c_ref.fill(0);
  blas::gemm_tiled<double>(1.0, a.view(), b.view(), 0.0, c.view(), 300);
  blas::gemm_ref<double>(1.0, a.view(), b.view(), 0.0, c_ref.view(),
                         blas::mk::select_kernel<double>(0).accumulate());
  const double err = util::max_abs_diff<double>(c.view(), c_ref.view());
  std::printf(
      "packed 30xk/kx8 tiled GEMM (%zux%zux%zu) vs reference: |diff| = %.2e\n",
      m, n, k, err);
  return err < 1e-10 ? 0 : 1;
}
