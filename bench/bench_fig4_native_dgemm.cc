// Regenerates Figure 4: native DGEMM performance on Sandy Bridge EP (MKL
// envelope) and Knights Corner (outer-product kernel with k=300, with and
// without packing overhead) for matrix sizes 1K..28K.
//
// Paper anchors: SNB up to ~90% (300 GFLOPS); KNC kernel 88% by 5K; packing
// overhead 15% at 1K, <2% from 5K, <0.4% past 17K.
//
// In addition to the modeled figure, this bench *measures* the functional
// packed-tile DGEMM (the real host numerics under the LU executors and the
// offload path) at large square sizes with a thread pool, and records GF/s
// per size in BENCH_gemm.json — the perf trajectory artifact for this hot
// path across PRs. Each size is measured three ways: pinned to the frozen
// "3x8@generic" baseline (the seed's SSE2-shaped kernel), auto-dispatched
// through the micro-kernel registry, and dispatched with the analytic
// block-model mc/kc/nc. The JSON carries the dispatched kernel name, the
// probed CPU features, and the analytic blocking so the artifact explains
// its own numbers.
//
// A third section measures every registered micro-kernel shape at every
// ISA tier the host runs, fp64 and fp32: one thread calling the shape's
// full-tile entry point (select_kernel_spec("MRxNR@tier"), then fns.full)
// on L1-resident packed tiles. Each cell is the median of 7 batches, with
// the batch min and max, one "microkernel" record per cell — the per-shape
// table EXPERIMENTS.md quotes and the auto-dispatch preferences rest on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "blas/block_model.h"
#include "blas/gemm_tiled.h"
#include "blas/microkernel/cpu_features.h"
#include "blas/microkernel/registry.h"
#include "json_out.h"
#include "sim/gemm_model.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

/// Times one pooled gemm_tiled call with the given options (best of `reps`,
/// after a warm-up run that also primes the pack buffers).
double measure_gemm_seconds(std::size_t n, xphi::blas::GemmOptions go,
                            int reps) {
  using namespace xphi;
  util::Matrix<double> a(n, n), b(n, n), c(n, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  c.fill(0.0);
  blas::gemm_tiled<double>(1.0, a.view(), b.view(), 0.0, c.view(), go);
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    blas::gemm_tiled<double>(1.0, a.view(), b.view(), 0.0, c.view(), go);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

/// Depth of the per-shape L1 measurement: A (tile_rows x 128), B (128 x N_r)
/// and C stay in a 48 KiB L1d for every registered shape and type.
constexpr std::size_t kShapeDepth = 128;
constexpr int kShapeBatches = 7;
constexpr int kShapeCallsPerBatch = 20000;

/// One microkernel record per (shape, tier) the host can run for type T.
template <class T>
void measure_shapes(const char* type_name, xphi::util::Table& table,
                    std::vector<xphi::bench::JsonRecord>& records) {
  using namespace xphi;
  util::Rng rng(7);
  for (const auto& kern : blas::mk::registry<T>()) {
    for (std::size_t isa = 0; isa < blas::mk::kIsaCount; ++isa) {
      const auto tier = static_cast<blas::mk::Isa>(isa);
      const std::string spec =
          std::string(kern.shape.name) + "@" + blas::mk::isa_name(tier);
      const auto sel = blas::mk::select_kernel_spec<T>(spec);
      // Skip tiers this build or host cannot run (resolution degrades them).
      if (!sel.has_value() || sel->isa != tier) continue;
      const std::size_t tr = kern.shape.tile_rows, nr = kern.shape.nr;
      util::AlignedBuffer<T> a(tr * kShapeDepth), b(kShapeDepth * nr),
          c(tr * nr);
      for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<T>(rng.next_centered());
      for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<T>(rng.next_centered());
      const auto full = sel->fns.full;
      // beta = 0.5 keeps C bounded over the repeated calls.
      full(a.data(), b.data(), kShapeDepth, T(1), T(0.5), c.data(), nr);
      const double flops = 2.0 * tr * nr * kShapeDepth * kShapeCallsPerBatch;
      std::vector<double> gf;
      for (int batch = 0; batch < kShapeBatches; ++batch) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kShapeCallsPerBatch; ++i)
          full(a.data(), b.data(), kShapeDepth, T(1), T(0.5), c.data(), nr);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        gf.push_back(flops / s * 1e-9);
      }
      std::sort(gf.begin(), gf.end());
      const double median = gf[gf.size() / 2];
      table.add_row({type_name, spec, util::Table::fmt(median, 1),
                     util::Table::fmt(gf.front(), 1),
                     util::Table::fmt(gf.back(), 1)});
      records.push_back(bench::JsonRecord{}
                            .str("record", "microkernel")
                            .str("type", type_name)
                            .str("shape", kern.shape.name)
                            .str("tier", blas::mk::isa_name(tier))
                            .num("tile_rows", static_cast<double>(tr))
                            .num("nr", static_cast<double>(nr))
                            .num("k", static_cast<double>(kShapeDepth))
                            .num("batches", kShapeBatches)
                            .num("calls_per_batch", kShapeCallsPerBatch)
                            .num("gflops", median)
                            .num("gflops_min", gf.front())
                            .num("gflops_max", gf.back()));
    }
  }
}

}  // namespace

int main() {
  using namespace xphi;
  const sim::KncGemmModel knc;
  const sim::SnbModel snb;
  const int knc_cores = knc.spec().compute_cores();
  const std::size_t k = 300;

  std::printf(
      "Figure 4: native DGEMM, outer product with k=%zu (KNC, %d cores) vs "
      "MKL DGEMM (SNB)\n\n",
      k, knc_cores);

  util::Table table({"N", "SNB GFLOPS", "SNB eff %", "KNC kernel GFLOPS",
                     "KNC kernel eff %", "KNC +packing GFLOPS",
                     "KNC +packing eff %", "packing ovh %"});
  for (std::size_t n = 1000; n <= 28000; n += (n < 8000 ? 1000 : 2000)) {
    const double snb_gf = snb.dgemm_gflops(n, n, n);
    const double snb_eff = snb.dgemm_efficiency(n, n, n);
    const double kern_eff = knc.gemm_efficiency(n, n, k, k, false,
                                                sim::Precision::kDouble,
                                                knc_cores);
    const double kern_gf = kern_eff * knc.spec().peak_gflops(
                                          sim::Precision::kDouble, knc_cores);
    const double pack_eff = knc.gemm_efficiency(n, n, k, k, true,
                                                sim::Precision::kDouble,
                                                knc_cores);
    const double pack_gf = pack_eff * knc.spec().peak_gflops(
                                          sim::Precision::kDouble, knc_cores);
    const double t_no = knc.gemm_seconds(n, n, k, k, false,
                                         sim::Precision::kDouble, knc_cores);
    const double t_yes = knc.gemm_seconds(n, n, k, k, true,
                                          sim::Precision::kDouble, knc_cores);
    table.add_row({util::Table::fmt(n), util::Table::fmt(snb_gf, 0),
                   util::Table::fmt(snb_eff * 100, 1),
                   util::Table::fmt(kern_gf, 0),
                   util::Table::fmt(kern_eff * 100, 1),
                   util::Table::fmt(pack_gf, 0),
                   util::Table::fmt(pack_eff * 100, 1),
                   util::Table::fmt((t_yes - t_no) / t_yes * 100, 2)});
  }
  table.print("fig4_native_dgemm.csv");

  std::printf(
      "\nPaper reference: SNB ~90%% at large N; KNC kernel reaches 88%% at "
      "5K; packing overhead 15%% @1K -> <2%% @5K -> <0.4%% @17K+.\n");

  // Measured functional DGEMM (pooled packed-tile kernel on this host):
  // frozen 3x8 generic baseline vs the registry's auto dispatch vs the
  // analytic-blocking point.
  const auto& cpu = blas::mk::host_cpu_features();
  const auto dispatched = blas::mk::select_kernel<double>(0);
  const blas::BlockSizes model = blas::analytic_block_sizes(
      cpu, dispatched ? dispatched.mr() : 3, dispatched ? dispatched.nr() : 8,
      sizeof(double));
  std::printf("\nFunctional packed-tile DGEMM (measured, pooled)\n");
  std::printf("  cpu: %s\n", blas::mk::describe(cpu).c_str());
  std::printf("  dispatched kernel: %s%s\n", dispatched.name().c_str(),
              blas::mk::env_override_spec().empty() ? "" : " (env pin)");
  std::printf("  analytic blocks: mc=%zu kc=%zu nc=%zu\n\n", model.mc,
              model.kc, model.nc);
  util::ThreadPool pool(4);
  util::Table mtable({"N", "3x8@generic GF/s", "dispatched GF/s",
                      "model-blocked GF/s", "speedup"});
  std::vector<bench::JsonRecord> records;
  records.push_back(
      bench::JsonRecord{}
          .str("record", "meta")
          .str("cpu", blas::mk::describe(cpu))
          .str("dispatched_kernel", dispatched.name())
          .str("env_pin", std::string(blas::mk::env_override_spec()))
          .num("model_mc", static_cast<double>(model.mc))
          .num("model_kc", static_cast<double>(model.kc))
          .num("model_nc", static_cast<double>(model.nc))
          .num("pool_threads", static_cast<double>(pool.size())));
  for (std::size_t n : {512, 768, 1024}) {
    blas::GemmOptions base;
    base.chunk_k = 300;
    base.kernel_spec = "3x8@generic";
    base.pool = &pool;
    blas::GemmOptions autod;
    autod.chunk_k = 300;
    autod.pool = &pool;
    blas::GemmOptions modeled;
    modeled.chunk_k = model.kc;
    modeled.mc = model.mc;
    modeled.nc = model.nc;
    modeled.pool = &pool;
    const double s_base = measure_gemm_seconds(n, base, 3);
    const double s_auto = measure_gemm_seconds(n, autod, 3);
    const double s_model = measure_gemm_seconds(n, modeled, 3);
    const double flops = 2.0 * n * n * n;
    const double gf_base = flops / s_base * 1e-9;
    const double gf_auto = flops / s_auto * 1e-9;
    const double gf_model = flops / s_model * 1e-9;
    mtable.add_row({util::Table::fmt(n), util::Table::fmt(gf_base, 2),
                    util::Table::fmt(gf_auto, 2),
                    util::Table::fmt(gf_model, 2),
                    util::Table::fmt(s_base / s_auto, 3)});
    records.push_back(bench::JsonRecord{}
                          .num("n", static_cast<double>(n))
                          .str("baseline_kernel", "3x8@generic")
                          .str("dispatched_kernel", dispatched.name())
                          .num("gflops_baseline", gf_base)
                          .num("gflops", gf_auto)
                          .num("gflops_model_blocked", gf_model)
                          .num("speedup_vs_baseline", s_base / s_auto)
                          .num("seconds", s_auto));
  }
  mtable.print("fig4_functional_dgemm.csv");

  std::printf(
      "\nMicro-kernel full tiles in L1 (one thread, k=%zu, median of %d "
      "batches of %d calls)\n",
      kShapeDepth, kShapeBatches, kShapeCallsPerBatch);
  util::Table stable({"type", "shape@tier", "GF/s", "min", "max"});
  measure_shapes<double>("fp64", stable, records);
  measure_shapes<float>("fp32", stable, records);
  stable.print("fig4_microkernel_shapes.csv");
  if (bench::write_json("BENCH_gemm.json", "fig4_functional_dgemm", records))
    std::printf("\nWrote BENCH_gemm.json (GF/s per size and per shape).\n");
  return 0;
}
