// Google-benchmark microbenchmarks of the *functional* kernels — the real
// host-side numerics (packed-tile GEMM, packing, panel factorization, row
// swaps, triangular solves). These are regression benchmarks for the library
// itself, not reproductions of paper numbers (the paper's numbers come from
// the simulators).
#include <benchmark/benchmark.h>

#include <vector>

#include "blas/gemm_ref.h"
#include "blas/gemm_tiled.h"
#include "blas/getrf.h"
#include "blas/lu_kernels.h"
#include "blas/pack.h"
#include "util/rng.h"

namespace {

using namespace xphi;
using util::Matrix;

void BM_PackA(benchmark::State& state) {
  const std::size_t m = state.range(0), k = 128;
  Matrix<double> a(m, k);
  util::fill_hpl_matrix(a.view(), 1);
  blas::PackedA<double> pa;
  for (auto _ : state) {
    pa.pack(a.view());
    benchmark::DoNotOptimize(pa.tile(0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * m * k * 8);
}
BENCHMARK(BM_PackA)->Arg(240)->Arg(960)->Arg(3840);

void BM_PackB(benchmark::State& state) {
  const std::size_t n = state.range(0), k = 128;
  Matrix<double> b(k, n);
  util::fill_hpl_matrix(b.view(), 2);
  blas::PackedB<double> pb;
  for (auto _ : state) {
    pb.pack(b.view());
    benchmark::DoNotOptimize(pb.tile(0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * k * 8);
}
BENCHMARK(BM_PackB)->Arg(240)->Arg(960)->Arg(3840);

void BM_GemmTiled(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Matrix<double> a(n, n), b(n, n), c(n, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  c.fill(0);
  for (auto _ : state) {
    blas::gemm_tiled<double>(1.0, a.view(), b.view(), 0.0, c.view(), 128);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTiled)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmRefBaseline(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Matrix<double> a(n, n), b(n, n), c(n, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  c.fill(0);
  for (auto _ : state) {
    blas::gemm_ref<double>(1.0, a.view(), b.view(), 0.0, c.view(),
                           blas::mk::Accumulate::kUnfused);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmRefBaseline)->Arg(64)->Arg(128);

void BM_GetrfPanel(benchmark::State& state) {
  const std::size_t m = state.range(0), nb = 32;
  Matrix<double> a(m, nb);
  std::vector<std::size_t> ipiv(nb);
  for (auto _ : state) {
    state.PauseTiming();
    util::fill_hpl_matrix(a.view(), 3);
    state.ResumeTiming();
    benchmark::DoNotOptimize(blas::getrf_panel<double>(a.view(), ipiv));
  }
}
BENCHMARK(BM_GetrfPanel)->Arg(256)->Arg(1024);

void BM_GetrfBlocked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Matrix<double> a(n, n);
  std::vector<std::size_t> ipiv(n);
  for (auto _ : state) {
    state.PauseTiming();
    util::fill_hpl_matrix(a.view(), 4);
    state.ResumeTiming();
    benchmark::DoNotOptimize(blas::getrf_blocked<double>(a.view(), ipiv, 48));
  }
  state.counters["flops/s"] = benchmark::Counter(
      2.0 / 3.0 * n * n * n * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GetrfBlocked)->Arg(128)->Arg(256);

void BM_Laswp(benchmark::State& state) {
  const std::size_t n = 1024, cols = state.range(0);
  Matrix<double> a(n, cols);
  util::fill_hpl_matrix(a.view(), 5);
  std::vector<std::size_t> ipiv(64);
  util::Rng rng(6);
  for (std::size_t i = 0; i < 64; ++i) ipiv[i] = 64 + rng.next_u64() % (n - 64);
  for (auto _ : state) {
    blas::laswp<double>(a.view(), ipiv, 0, 64);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64 * cols *
                          8 * 4);
}
BENCHMARK(BM_Laswp)->Arg(128)->Arg(1024);

void BM_TrsmLowerUnit(benchmark::State& state) {
  const std::size_t nb = 64, n = state.range(0);
  Matrix<double> l(nb, nb), b(nb, n);
  util::fill_hpl_matrix(l.view(), 7);
  for (std::size_t r = 0; r < nb; ++r) {
    l(r, r) = 1.0;
    for (std::size_t c = r + 1; c < nb; ++c) l(r, c) = 0.0;
  }
  util::fill_hpl_matrix(b.view(), 8);
  for (auto _ : state) {
    blas::trsm_left_lower_unit<double>(l.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TrsmLowerUnit)->Arg(128)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
