// Panel critical-path bench: the seed (pre-overhaul) panel/LASWP/TRSM
// kernels against the recursive-panel + fused-LASWP + blocked-TRSM path at
// paper panel shapes (DESIGN.md §11, BENCH_panel.json).
//
// The "before" kernels are frozen copies of the seed implementations
// (per-pivot swap loops, scalar triple-loop TRSM, serial recursion, and the
// seed GEMM's 5-row register sub-blocks) so the comparison stays honest as
// the live kernels keep evolving. Each cell is the best of `--reps` timed
// runs on identical inputs. The panel_copy rows compare the stage loop's
// serial look-ahead panel in place (before) against the same panel on a
// contiguous copy (after), fp64 and fp32, and fail on any bit difference.
//
// Flags:
//   --reps N     timed repetitions per cell (best-of)   [default 5]
//   --out PATH   JSON artifact                          [BENCH_panel.json]
//   --smoke      tiny shapes, 2 reps (the ctest gate; no speedup gate)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <thread>
#include <utility>
#include <vector>

#include "blas/getrf.h"
#include "blas/lu_kernels.h"
#include "blas/microkernel/cpu_features.h"
#include "blas/microkernel/registry.h"
#include "json_out.h"
#include "util/aligned.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace xphi;
using util::Matrix;
using util::MatrixView;

// ---- Seed kernels (pre-overhaul), verbatim semantics. ----------------------

namespace seedk {

template <class T>
void trsm_left_lower_unit(MatrixView<const T> l, MatrixView<T> b) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    T* bi = b.row(i);
    for (std::size_t kk = 0; kk < i; ++kk) {
      const T lik = l(i, kk);
      if (lik == T{}) continue;
      const T* bk = b.row(kk);
      for (std::size_t c = 0; c < b.cols(); ++c) bi[c] -= lik * bk[c];
    }
  }
}

template <class T>
void laswp(MatrixView<T> a, std::span<const std::size_t> ipiv, std::size_t k0,
           std::size_t k1) {
  for (std::size_t i = k0; i < k1; ++i) blas::swap_rows(a, i, ipiv[i]);
}

// Seed GEMM: the live packed rank-k pipeline pinned to the registry's
// frozen "3x8@generic" baseline and kept serial — the seed panel recursion
// never handed its trailing updates a pool. (The old frozen copy of the
// seed's 5x8 sub-block kernel is gone: every registered generic shape is
// bitwise-identical to it by the kernels_inl.h contract, so the pinned
// baseline measures the seed's numerics without duplicating the kernel
// here. The live path on an FMA tier runs the fused fp64 contract.)
template <class T>
void gemm_tiled(T alpha, MatrixView<const T> a, MatrixView<const T> b, T beta,
                MatrixView<T> c, std::size_t chunk_k) {
  blas::GemmOptions go;
  go.chunk_k = chunk_k;
  go.kernel_spec = "3x8@generic";
  blas::gemm_tiled<T>(alpha, a, b, beta, c, go);
}

template <class T>
bool getrf_panel(MatrixView<T> a, std::span<std::size_t> ipiv,
                 std::size_t leaf = 8) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (n <= leaf || m <= 1) return blas::getrf_unblocked<T>(a, ipiv);
  const std::size_t n1 = n / 2;
  const std::size_t n2 = n - n1;
  auto left = a.block(0, 0, m, n1);
  if (!getrf_panel<T>(left, ipiv.subspan(0, n1), leaf)) return false;
  auto right = a.block(0, n1, m, n2);
  laswp<T>(right, std::span<const std::size_t>(ipiv.data(), n1), 0, n1);
  auto l11 = a.block(0, 0, n1, n1);
  auto b_top = a.block(0, n1, n1, n2);
  trsm_left_lower_unit<T>(MatrixView<const T>(l11), b_top);
  if (m > n1) {
    auto a21 = a.block(n1, 0, m - n1, n1);
    auto b_bot = a.block(n1, n1, m - n1, n2);
    gemm_tiled<T>(T{-1}, MatrixView<const T>(a21), MatrixView<const T>(b_top),
                  T{1}, b_bot, /*chunk_k=*/n1 < 300 ? (n1 ? n1 : 1) : 300);
  }
  auto bottom = a.block(n1, n1, m - n1, n2);
  if (!getrf_panel<T>(bottom, ipiv.subspan(n1, n2), leaf)) return false;
  for (std::size_t i = 0; i < n2; ++i) {
    ipiv[n1 + i] += n1;
    if (ipiv[n1 + i] != n1 + i) {
      auto left_cols = a.block(0, 0, m, n1);
      blas::swap_rows(left_cols, n1 + i, ipiv[n1 + i]);
    }
  }
  return true;
}

}  // namespace seedk

struct Options {
  int reps = 5;
  bool smoke = false;
  std::string out = "BENCH_panel.json";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--reps") {
      o.reps = std::atoi(next());
    } else if (a == "--out") {
      o.out = next();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_panel [--reps N] [--out PATH] [--smoke]\n");
      std::exit(a == "--help" ? 0 : 2);
    }
  }
  if (o.reps < 1) o.reps = 1;
  if (o.smoke) o.reps = std::min(o.reps, 2);
  return o;
}

template <class Body>
double time_once(Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

struct Timing {
  double before_s = 0, after_s = 0;  // best-of-reps (throughput figures)
  double speedup = 1;                // median per-pair before/after ratio
};

/// Times both variants with the reps *interleaved* (before, after, before,
/// after, ...). The best-of times feed the GF/s / GB/s columns; the speedup
/// is the MEDIAN of the per-pair time ratios. Each pair runs back-to-back,
/// so a frequency shift or noisy neighbor moves both sides of a pair
/// together and cancels in its ratio — comparing each side's best instead
/// can pick the two bests from different drift epochs and swing the ratio
/// by far more than the kernels differ. `reset` restores the input before
/// every timed run.
template <class Reset, class Before, class After>
Timing time_pair(int reps, Reset reset, Before before, After after) {
  Timing t;
  double best_b = 1e99, best_a = 1e99;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    reset();
    const double tb = std::max(time_once(before), 1e-9);
    reset();
    const double ta = std::max(time_once(after), 1e-9);
    best_b = std::min(best_b, tb);
    best_a = std::min(best_a, ta);
    ratios.push_back(tb / ta);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  t.before_s = best_b;
  t.after_s = best_a;
  t.speedup = ratios[ratios.size() / 2];
  return t;
}

struct Row {
  std::string op;
  std::string shape;
  double work = 0;        // flops (panel/trsm) or bytes touched (laswp)
  const char* unit = "";  // GF/s or GB/s
  Timing t{};
};


/// The serial look-ahead panel of an n x n matrix (getrf_stages on a pool):
/// factored in place (ld = n) against factored on a contiguous copy
/// (ld = jb, blas::detail::factor_panel_copy). The two must give the same
/// factors and pivots; `bits_equal` reports whether they did.
template <class T>
Row panel_copy_row(std::size_t n, std::size_t jb, int reps, bool& bits_equal) {
  Matrix<T> a0(n, jb), a(n, n);
  {
    Matrix<double> src(n, jb);
    util::fill_hpl_matrix(src.view(), 17);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < jb; ++c) a0(r, c) = static_cast<T>(src(r, c));
  }
  std::vector<std::size_t> piv(n);
  util::AlignedBuffer<T> buf;
  const blas::PanelOptions serial;
  auto reset = [&] {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < jb; ++c) a(r, c) = a0(r, c);
  };
  auto in_place = [&] {
    blas::getrf_panel<T>(a.view().block(0, 0, n, jb),
                         std::span<std::size_t>(piv).first(jb), serial);
  };
  auto copied = [&] {
    blas::detail::factor_panel_copy<T>(a.view(), piv, 0, jb, serial, buf);
  };
  const bool fp32 = sizeof(T) == sizeof(float);
  Row row{.op = fp32 ? "panel_copy_f32" : "panel_copy",
          .shape = std::to_string(n) + "x" + std::to_string(jb),
          .work = static_cast<double>(jb) * jb *
                  (static_cast<double>(n) - jb / 3.0),
          .unit = "GF/s"};
  row.t = time_pair(reps, reset, in_place, copied);
  reset();
  in_place();
  Matrix<T> want(n, jb);
  for (std::size_t r = 0; r < n; ++r)
    std::memcpy(want.data() + r * jb, a.data() + r * a.ld(), jb * sizeof(T));
  const std::vector<std::size_t> want_piv(piv.begin(), piv.begin() + jb);
  reset();
  copied();
  bits_equal = std::equal(want_piv.begin(), want_piv.end(), piv.begin());
  for (std::size_t r = 0; r < n && bits_equal; ++r)
    bits_equal = std::memcmp(want.data() + r * jb, a.data() + r * a.ld(),
                             jb * sizeof(T)) == 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Size the pool to the machine: worker threads only help past one core
  // (the kernels take pool == nullptr as "stay serial", which is also what
  // the drivers do on single-core hosts).
  const unsigned hc = std::thread::hardware_concurrency();
  std::unique_ptr<util::ThreadPool> pool_owner;
  util::ThreadPool* pool = nullptr;
  if (hc > 1) {
    pool_owner = std::make_unique<util::ThreadPool>(hc - 1);
    pool = pool_owner.get();
  }
  std::vector<Row> rows;

  // --- Panel stage: factor the m x jb panel, flush its interchanges across
  // a w-wide trailing region, forward-solve the U row block (paper Figure
  // 5a's per-stage critical path — the serial work that gates look-ahead;
  // the trailing GEMM it feeds is the offloaded part and is measured by the
  // GEMM benches). The seed side runs the frozen recursion + per-pivot
  // sweeps + scalar TRSM; the live side the recursive panel with blocked
  // TRSM leaves, one fused SwapPlan pass, and the cache-blocked solve.
  {
    const std::vector<std::array<std::size_t, 3>> shapes =
        opt.smoke ? std::vector<std::array<std::size_t, 3>>{{256, 32, 512}}
                  : std::vector<std::array<std::size_t, 3>>{
                        {1024, 64, 2048}, {2048, 64, 4096}, {4096, 128, 4096}};
    for (const auto& [m, jb, w] : shapes) {
      Matrix<double> a0(m, jb), a(m, jb), t0(m, w), t(m, w);
      util::fill_hpl_matrix(a0.view(), 11);
      util::fill_hpl_matrix(t0.view(), 16);
      std::vector<std::size_t> piv(jb);
      auto reset = [&] {
        for (std::size_t r = 0; r < m; ++r)
          for (std::size_t c = 0; c < jb; ++c) a(r, c) = a0(r, c);
        for (std::size_t r = 0; r < m; ++r)
          for (std::size_t c = 0; c < w; ++c) t(r, c) = t0(r, c);
      };
      Row row{.op = "panel",
              .shape = std::to_string(m) + "x" + std::to_string(jb) +
                       " +U" + std::to_string(w),
              .work = static_cast<double>(jb) * jb *
                          (static_cast<double>(m) - jb / 3.0) +
                      static_cast<double>(jb) * jb * w,
              .unit = "GF/s"};
      blas::PanelOptions popt;
      popt.pool = pool;
      row.t = time_pair(
          opt.reps, reset,
          [&] {
            seedk::getrf_panel<double>(a.view(), piv);
            seedk::laswp<double>(t.view(),
                                 std::span<const std::size_t>(piv), 0, jb);
            auto l11 = a.view().block(0, 0, jb, jb);
            auto u = t.view().block(0, 0, jb, w);
            seedk::trsm_left_lower_unit<double>(
                MatrixView<const double>(l11), u);
          },
          [&] {
            blas::getrf_panel<double>(a.view(), piv, popt);
            blas::laswp_fused<double>(
                t.view(),
                blas::make_swap_plan(std::span<const std::size_t>(piv), 0, jb),
                pool);
            auto l11 = a.view().block(0, 0, jb, jb);
            auto u = t.view().block(0, 0, jb, w);
            blas::trsm_left_lower_unit<double>(
                MatrixView<const double>(l11), u, pool);
          });
      rows.push_back(std::move(row));
    }
  }

  // --- Fused LASWP: batched interchanges on a block-cyclic local share. ----
  // For the all-disjoint pivots of a single panel, any swap scheme is pinned
  // to the same 4-accesses-per-row floor (the equivalence tests cover that
  // case bitwise). The fusion's headroom is where interchanges collide:
  // distributed HPL batches rank-local swaps into one SwapPlan per flush,
  // and on a block-cyclic local share several pivots land on the same local
  // rows — composing them into cycles moves each row once where the sweep
  // moves it once per pivot. Shapes: local row count x local width, with jb
  // batched interchanges (paper nb = 64..240) naming half to nearly all of
  // the local share — the collision density of late-factorization flushes,
  // where the share has shrunk to a few panels' worth of rows and fusion has
  // its headroom (early flushes on a large share degenerate to the sweep's
  // access count; the equivalence tests pin that case bitwise).
  {
    const std::vector<std::array<std::size_t, 3>> shapes =
        opt.smoke ? std::vector<std::array<std::size_t, 3>>{{64, 512, 32}}
                  : std::vector<std::array<std::size_t, 3>>{
                        {128, 4096, 64}, {256, 4096, 128}, {256, 8192, 240}};
    for (const auto& [nloc, w, jb] : shapes) {
      Matrix<double> a(nloc, w);
      util::fill_hpl_matrix(a.view(), 12);
      // Partial-pivoting-shaped sequence compressed onto the local share:
      // step i swaps with a uniform local row at or below i, so later steps
      // frequently hit rows earlier steps already moved.
      std::vector<std::size_t> ipiv(jb);
      util::Rng rng(13);
      for (std::size_t i = 0; i < jb; ++i)
        ipiv[i] = i + rng.next_u64() % (nloc - i);
      Row row{.op = "laswp",
              .shape = "local " + std::to_string(nloc) + "x" +
                       std::to_string(w) + " jb=" + std::to_string(jb),
              .work = 4.0 * 8.0 * static_cast<double>(jb) * w,
              .unit = "GB/s"};
      // The drivers build one SwapPlan per flush and apply it to every
      // column interval, so the composition is amortized out of this
      // per-region measurement — its cost rides in the panel row, where
      // getrf_panel builds plans internally. Swap timing is
      // content-independent, so no reset between reps.
      const blas::SwapPlan plan =
          blas::make_swap_plan(std::span<const std::size_t>(ipiv), 0, jb);
      row.t = time_pair(
          opt.reps, [] {},
          [&] {
            seedk::laswp<double>(a.view(), std::span<const std::size_t>(ipiv),
                                 0, jb);
          },
          [&] { blas::laswp_fused<double>(a.view(), plan, pool); });
      rows.push_back(std::move(row));
    }
  }

  // --- TRSM forward solve: jb x jb unit-lower L against a wide U panel. ----
  // 64x3008 is lu_node's first U block (nb = 64, n = 3072); it and 128x1024
  // are narrower than one L2 chunk, so they show the per-participant split.
  {
    const std::vector<std::pair<std::size_t, std::size_t>> shapes =
        opt.smoke
            ? std::vector<std::pair<std::size_t, std::size_t>>{{64, 256}}
            : std::vector<std::pair<std::size_t, std::size_t>>{
                  {64, 3008}, {128, 1024}, {240, 2048}, {256, 4096}};
    for (const auto& [jb, cols] : shapes) {
      Matrix<double> l(jb, jb), b0(jb, cols), b(jb, cols);
      util::fill_hpl_matrix(l.view(), 14);
      util::fill_hpl_matrix(b0.view(), 15);
      for (std::size_t i = 0; i < jb; ++i) l(i, i) = 1.0;
      auto reset = [&] {
        for (std::size_t r = 0; r < jb; ++r)
          for (std::size_t c = 0; c < cols; ++c) b(r, c) = b0(r, c);
      };
      Row row{.op = "trsm",
              .shape = std::to_string(jb) + "x" + std::to_string(cols),
              .work = static_cast<double>(jb) * jb * cols,
              .unit = "GF/s"};
      row.t = time_pair(
          opt.reps, reset,
          [&] {
            seedk::trsm_left_lower_unit<double>(
                MatrixView<const double>(l.view()), b.view());
          },
          [&] {
            blas::trsm_left_lower_unit<double>(
                MatrixView<const double>(l.view()), b.view(), pool);
          });
      rows.push_back(std::move(row));
    }
  }

  // --- The look-ahead panel: serial, in place against a contiguous copy. --
  // getrf_stages' pooled look-ahead factors the next panel on one
  // participant, copied out of the matrix (ld = n) into an ld = jb buffer.
  // Before = in place, after = the copy; both sides are serial, and their
  // factors and pivots must match bit for bit.
  std::vector<std::string> bit_mismatches;
  {
    const std::vector<std::size_t> heights =
        opt.smoke ? std::vector<std::size_t>{256}
                  : std::vector<std::size_t>{3072, 1536};
    const std::size_t jb = opt.smoke ? 32 : 64;
    for (const std::size_t n : heights) {
      for (const bool fp32 : {false, true}) {
        bool same = false;
        rows.push_back(fp32 ? panel_copy_row<float>(n, jb, opt.reps, same)
                            : panel_copy_row<double>(n, jb, opt.reps, same));
        if (!same)
          bit_mismatches.push_back(rows.back().op + " " + rows.back().shape);
      }
    }
  }

  util::Table table({"op", "shape", "before", "after", "unit", "speedup"});
  std::vector<bench::JsonRecord> records;
  // Attribution header: which kernel the live side dispatched and on what
  // CPU, so a regression in this artifact is explainable after the fact.
  const auto dispatched = blas::mk::select_kernel<double>(0);
  records.push_back(
      bench::JsonRecord{}
          .str("record", "meta")
          .str("cpu", blas::mk::describe(blas::mk::host_cpu_features()))
          .str("dispatched_kernel", dispatched.name())
          .str("baseline_kernel", "3x8@generic")
          .str("env_pin", std::string(blas::mk::env_override_spec())));
  for (const Row& r : rows) {
    const double before_rate = r.work / r.t.before_s / 1e9;
    const double after_rate = r.work / r.t.after_s / 1e9;
    table.add_row({r.op, r.shape, util::Table::fmt(before_rate, 2),
                   util::Table::fmt(after_rate, 2), r.unit,
                   util::Table::fmt(r.t.speedup, 3)});
    records.push_back(bench::JsonRecord{}
                          .str("op", r.op)
                          .str("shape", r.shape)
                          .str("unit", r.unit)
                          .num("before", before_rate)
                          .num("after", after_rate)
                          .num("speedup", r.t.speedup));
  }
  std::printf("Panel critical-path kernels: seed vs overhauled (best of %d)\n\n",
              opt.reps);
  table.print("panel_sweep.csv");
  if (bench::write_json(opt.out, "panel", records))
    std::printf("\nWrote %s.\n", opt.out.c_str());
  else
    std::fprintf(stderr, "warning: could not write %s\n", opt.out.c_str());

  for (const std::string& what : bit_mismatches) {
    std::fprintf(stderr, "BUG: %s: the copied panel's bits differ\n",
                 what.c_str());
    return 1;
  }
  // Full runs gate on the overhaul actually winning everywhere (median
  // per-pair ratio >= 1); the smoke shapes are too small to assert timing on
  // shared CI cores.
  if (!opt.smoke) {
    for (const Row& r : rows) {
      if (r.t.speedup < 1.0) {
        std::fprintf(stderr, "BUG: %s %s overhauled path slower than seed\n",
                     r.op.c_str(), r.shape.c_str());
        return 1;
      }
    }
  }
  return 0;
}
