// Tiled GEMM over the Knights Corner packed format (paper Section III-A2),
// dispatched through the runtime micro-kernel registry.
//
// The micro-kernel mirrors the structure of Basic Kernel 2: it accumulates an
// (M_r x nr) block of C in explicit vector registers — GCC vector-extension
// values, one or more per C row, at most the dispatch tier's width (16 bytes
// SSE2, 32 AVX2, 64 AVX-512) — streaming one column of the packed `a` tile
// and one row of the packed `b` tile per k-iteration, the host analogue of
// the paper's 30 accumulator registers. The cycle-accurate behaviour of the
// real kernel lives in sim/pipeline.h. What this functional version shares
// with the real one is the data layout, the register blocking, the loop
// structure, and the numerics (verified against gemm_ref).
//
// PR 5 froze one 3x8 register block (the SSE2 envelope). The kernel shape is
// now a runtime decision: mk::select_kernel picks the widest registered
// M_r x N_r variant the host supports (AVX2 -> 6x8, AVX-512 -> 8x8, see
// blas/microkernel/registry.h), gemm_tiled packs operands at that shape's
// tile geometry, and interior tiles run the shape's branch-free full-tile
// path while true edge tiles take its masked store — the paper's "edge
// waste" — so interior tiles never pay for edges. Every registered shape
// accumulates each C element over k in the same ascending order under its
// tier's contract (kernels_inl.h: fused fp64 at avx2/avx512, unfused
// otherwise), so the shape changes speed, never numerics; the tier fixes
// the fp64 rounding contract.
//
// On top of the k-chunked outer-product pipeline, GemmOptions adds the
// classic mc/nc cache blocking: C advances in (mc x nc) panels so the
// packed A block stays L2-resident and the packed B panel inside TLB reach
// (defaults: unbounded, i.e. the PR 5 behavior; blas/block_model.h derives
// analytic values from the probed cache geometry). mc/nc only re-order
// *which* C block is computed when — each element's k-accumulation order is
// untouched — so they are bitwise-neutral; chunk_k is the one knob that
// changes rounding.
#pragma once

#include <cstddef>
#include <type_traits>

#include "blas/microkernel/registry.h"
#include "blas/pack.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

// Generic inline instantiation of the micro-kernel generator templates —
// the fallback for element types without registry entries, and the layer
// the unit tests pin directly. Registered types (double/float) normally
// dispatch to per-ISA compiled copies of these same templates; this
// namespace and those TUs share one source of truth (kernels_inl.h). It
// uses the baseline 16-byte vector width and the unfused k-step, which
// every build target has.
namespace ukr {
inline constexpr std::size_t kVectorBytes = 16;
inline constexpr bool kFusedDouble = false;
#include "blas/microkernel/kernels_inl.h"
}  // namespace ukr

/// Full-tile fast path: C is exactly kTr x kTc, no masking anywhere. kRb is
/// the register sub-block height (the micro shape's M_r).
template <class T, std::size_t kTr, std::size_t kTc, std::size_t kRb>
void micro_kernel_full(const T* a_tile, const T* b_tile, std::size_t k,
                       T alpha, T beta, T* c, std::size_t ldc) {
  ukr::ukr_full<T, kRb, kTc, kTr>(a_tile, b_tile, k, alpha, beta, c, ldc);
}

/// Register sub-block height of the inline kernels for a kTr-row tile.
template <std::size_t kTr>
inline constexpr std::size_t kInlineRb = kTr % kMicroRows == 0 ? kMicroRows
                                                                : kTr;

/// Masked path for edge tiles: writes only the live rows x cols corner.
template <class T, std::size_t kTr = kTileRows, std::size_t kTc = kTileCols>
void micro_kernel_masked(const T* a_tile, const T* b_tile, std::size_t k,
                         T alpha, T beta, T* c, std::size_t ldc,
                         std::size_t rows, std::size_t cols) {
  ukr::ukr_masked<T, kInlineRb<kTr>, kTc, kTr>(a_tile, b_tile, k, alpha, beta,
                                                c, ldc, rows, cols);
}

/// C(rows x cols) = alpha * (a_tile * b_tile) + beta_or_accumulate.
/// a_tile: tile_rows x k column-major; b_tile: k x tile_cols row-major.
/// Dispatches to the full-tile fast path when the whole kTr x kTc block is
/// live; edge tiles mask the zero padding on store-back.
template <class T, std::size_t kTr = kTileRows, std::size_t kTc = kTileCols>
void micro_kernel(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
                  T beta, T* c, std::size_t ldc, std::size_t rows,
                  std::size_t cols) {
  if (rows == kTr && cols == kTc) {
    micro_kernel_full<T, kTr, kTc, kInlineRb<kTr>>(a_tile, b_tile, k, alpha,
                                                   beta, c, ldc);
  } else {
    micro_kernel_masked<T, kTr, kTc>(a_tile, b_tile, k, alpha, beta, c, ldc,
                                     rows, cols);
  }
}

/// Runtime-geometry scalar fallback for pre-packed operands whose tile
/// dimensions match no compile-time template and no registry shape. Same
/// per-element ascending-k accumulation as every other path.
template <class T>
void micro_kernel_rt(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
                     T beta, T* c, std::size_t ldc, std::size_t tile_rows,
                     std::size_t tile_cols, std::size_t rows,
                     std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c2 = 0; c2 < cols; ++c2) {
      T acc{};
      for (std::size_t j = 0; j < k; ++j)
        acc += a_tile[j * tile_rows + r] * b_tile[j * tile_cols + c2];
      c[r * ldc + c2] = alpha * acc + beta * c[r * ldc + c2];
    }
  }
}

/// Packed-tile geometry of a micro-kernel: the A-tile height and the B-tile
/// width (the shape's tile_rows and N_r).
struct TileGeometry {
  std::size_t rows = kTileRows;
  std::size_t cols = kTileCols;
};

/// Performance knobs of the tiled GEMM. Every field is bitwise-neutral
/// except chunk_k (each k-chunk is a separately rounded rank-kc update);
/// mc/nc/kernel only change execution order and instruction selection.
struct GemmOptions {
  /// Outer-product panel depth kc (the paper's k = 300 default).
  std::size_t chunk_k = 300;
  /// Row/column blocking of C (0 = unbounded, the PR 5 behavior). Rounded
  /// to tile multiples internally; blas/block_model.h supplies analytic
  /// values, bench_tune's microkernel sweep measured ones.
  std::size_t mc = 0;
  std::size_t nc = 0;
  /// Registry shape id (mr*100 + nr; 0 = auto-dispatch). The
  /// XPHI_MICROKERNEL env pin overrides both fields.
  int kernel = 0;
  /// Full forcing spec, e.g. "3x8@generic" (wins over `kernel`); benches
  /// use this for frozen-baseline comparisons.
  const char* kernel_spec = nullptr;
  util::ThreadPool* pool = nullptr;
};

namespace detail {

/// A resolved micro-kernel plus its pack geometry; callable with the
/// (tile pointers, k, rows, cols) of one C tile. Falls back to the inline
/// template kernels (default geometry) or the runtime-geometry scalar
/// kernel when the registry has nothing for T / for the layout.
template <class T>
struct MicroDispatch {
  mk::Selection<T> sel;
  TileGeometry tile;

  void operator()(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
                  T beta, T* c, std::size_t ldc, std::size_t rows,
                  std::size_t cols) const {
    if (sel) {
      if (rows == tile.rows && cols == tile.cols) {
        sel.fns.full(a_tile, b_tile, k, alpha, beta, c, ldc);
      } else {
        sel.fns.masked(a_tile, b_tile, k, alpha, beta, c, ldc, rows, cols);
      }
    } else if (tile.rows == kTileRows && tile.cols == kTileCols) {
      micro_kernel<T>(a_tile, b_tile, k, alpha, beta, c, ldc, rows, cols);
    } else {
      micro_kernel_rt<T>(a_tile, b_tile, k, alpha, beta, c, ldc, tile.rows,
                         tile.cols, rows, cols);
    }
  }
};

template <class T>
MicroDispatch<T> resolve_dispatch(int kernel, const char* kernel_spec) {
  MicroDispatch<T> d;
  if (kernel_spec != nullptr) {
    if (auto s = mk::select_kernel_spec<T>(kernel_spec)) {
      d.sel = *s;
    } else {
      d.sel = mk::select_kernel<T>(kernel);
    }
  } else {
    d.sel = mk::select_kernel<T>(kernel);
  }
  if (d.sel) d.tile = {d.sel.tile_rows(), d.sel.nr()};
  return d;
}

/// The k-chunked outer-product pipeline over one C block (paper Section
/// III-A: "a sequence of outer products"), packing each chunk into the
/// Knights Corner-friendly format before multiplying.
///
/// Packing is pool-parallel, and with a pool the packing of chunk i+1 is
/// folded into the same dispatch as chunk i's outer products: pack tasks sit
/// behind the micro-kernel tasks in the dynamically claimed index space, so
/// workers that drain the compute tasks early pick up next-chunk packing
/// instead of idling (the double-buffered operand panels make the two chunks
/// independent).
template <class T>
void gemm_block(T alpha, util::MatrixView<const T> a,
                util::MatrixView<const T> b, T beta, util::MatrixView<T> c,
                std::size_t chunk_k, const MicroDispatch<T>& micro,
                util::ThreadPool* pool) {
  const std::size_t big_k = a.cols();
  PackedA<T> pa[2];
  PackedB<T> pb[2];
  const std::size_t kc0 = std::min(chunk_k, big_k);
  pa[0].pack(a.block(0, 0, a.rows(), kc0), micro.tile.rows, pool);
  pb[0].pack(b.block(0, 0, kc0, b.cols()), micro.tile.cols, pool);
  std::size_t cur = 0;
  for (std::size_t k0 = 0; k0 < big_k; k0 += chunk_k) {
    const std::size_t next_k0 = k0 + chunk_k;
    const bool has_next = next_k0 < big_k;
    // beta applies to the first chunk only; later chunks accumulate.
    const T chunk_beta = k0 == 0 ? beta : T{1};
    const std::size_t op_tasks = pa[cur].tiles() * pb[cur].tiles();
    const std::size_t k_cur = pa[cur].depth();
    const std::size_t col_tiles = pb[cur].tiles();
    const std::size_t nxt = 1 - cur;
    std::size_t a_tiles = 0, b_tiles = 0;
    if (has_next) {
      const std::size_t kc = std::min(chunk_k, big_k - next_k0);
      a_tiles = pa[nxt].prepare(a.block(0, next_k0, a.rows(), kc),
                                micro.tile.rows);
      b_tiles = pb[nxt].prepare(b.block(next_k0, 0, kc, b.cols()),
                                micro.tile.cols);
    }
    auto fused = [&](std::size_t task) {
      if (task < op_tasks) {
        const std::size_t rt = task / col_tiles;
        const std::size_t ct = task % col_tiles;
        const std::size_t r0 = rt * pa[cur].tile_rows();
        const std::size_t c0 = ct * pb[cur].tile_cols();
        micro(pa[cur].tile(rt), pb[cur].tile(ct), k_cur, alpha, chunk_beta,
              c.data() + r0 * c.ld() + c0, c.ld(), pa[cur].tile_height(rt),
              pb[cur].tile_width(ct));
      } else if (task < op_tasks + a_tiles) {
        pa[nxt].pack_tile(task - op_tasks);
      } else {
        pb[nxt].pack_tile(task - op_tasks - a_tiles);
      }
    };
    const std::size_t total = op_tasks + a_tiles + b_tiles;
    if (pool != nullptr) {
      pool->parallel_for(total, fused);
    } else {
      for (std::size_t t = 0; t < total; ++t) fused(t);
    }
    if (!has_next) break;
    cur = nxt;
  }
}

}  // namespace detail

/// The tile geometry gemm_tiled packs at for this kernel choice (registry
/// shape id, optional forcing spec; the XPHI_MICROKERNEL pin wins, as in
/// gemm_tiled). Callers that pack operands ahead of time — the offload
/// engine's PackCache panels, the DAG LU's L21 and U12 — pack at this
/// geometry, so outer_product_packed resolves the same kernel gemm_tiled
/// runs. kTileRows x kTileCols only when T has no registry kernel.
template <class T>
TileGeometry dispatched_tile(int kernel = 0,
                             const char* kernel_spec = nullptr) {
  return detail::resolve_dispatch<T>(kernel, kernel_spec).tile;
}

/// One outer product over pre-packed operands:
/// C(MxN) = alpha * Ai * Bi + beta * C.
/// The pack layout is the caller's, so dispatch picks the widest registered
/// kernel whose shape *matches* that layout (a `kernel` pin or the env
/// override is honored when compatible); operands packed at a geometry no
/// registered shape uses fall back to the template/scalar kernels. Operands
/// packed at dispatched_tile<T>(kernel) run exactly gemm_tiled's kernel.
template <class T>
void outer_product_packed(T alpha, const PackedA<T>& a, const PackedB<T>& b,
                          T beta, util::MatrixView<T> c,
                          util::ThreadPool* pool = nullptr, int kernel = 0) {
  detail::MicroDispatch<T> micro;
  micro.sel = mk::select_for_tile<T>(a.tile_rows(), b.tile_cols(), kernel);
  micro.tile = {a.tile_rows(), b.tile_cols()};
  const std::size_t k = a.depth();
  const std::size_t col_tiles = b.tiles();
  auto body = [&](std::size_t task) {
    const std::size_t rt = task / col_tiles;
    const std::size_t ct = task % col_tiles;
    const std::size_t r0 = rt * a.tile_rows();
    const std::size_t c0 = ct * b.tile_cols();
    micro(a.tile(rt), b.tile(ct), k, alpha, beta,
          c.data() + r0 * c.ld() + c0, c.ld(), a.tile_height(rt),
          b.tile_width(ct));
  };
  const std::size_t tasks = a.tiles() * col_tiles;
  if (pool != nullptr) {
    pool->parallel_for(tasks, body);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) body(t);
  }
}

/// Full GEMM C = alpha*A*B + beta*C: registry-dispatched micro-kernel,
/// k-chunked outer-product pipeline, optional mc/nc cache blocking of C.
template <class T>
void gemm_tiled(T alpha, util::MatrixView<const T> a,
                util::MatrixView<const T> b, T beta, util::MatrixView<T> c,
                const GemmOptions& opt) {
  const std::size_t big_k = a.cols();
  if (big_k == 0 || c.rows() == 0 || c.cols() == 0) {
    // Pure scaling: C = beta * C.
    for (std::size_t r = 0; r < c.rows(); ++r)
      for (std::size_t cc = 0; cc < c.cols(); ++cc) c(r, cc) *= beta;
    return;
  }
  const detail::MicroDispatch<T> micro =
      detail::resolve_dispatch<T>(opt.kernel, opt.kernel_spec);
  const std::size_t chunk_k = opt.chunk_k != 0 ? opt.chunk_k : 300;
  // Round the C blocking to tile multiples so mc/nc never manufacture edge
  // tiles in the interior (edges would still be *correct* — the masked
  // kernel accumulates identically — just slower).
  std::size_t mc = opt.mc;
  std::size_t nc = opt.nc;
  if (mc != 0)
    mc = std::max(micro.tile.rows, mc / micro.tile.rows * micro.tile.rows);
  if (nc != 0)
    nc = std::max(micro.tile.cols, nc / micro.tile.cols * micro.tile.cols);
  if (mc == 0 || mc > c.rows()) mc = c.rows();
  if (nc == 0 || nc > c.cols()) nc = c.cols();
  for (std::size_t jc = 0; jc < c.cols(); jc += nc) {
    const std::size_t nb = std::min(nc, c.cols() - jc);
    for (std::size_t ic = 0; ic < c.rows(); ic += mc) {
      const std::size_t mb = std::min(mc, c.rows() - ic);
      detail::gemm_block<T>(alpha, a.block(ic, 0, mb, big_k),
                            b.block(0, jc, big_k, nb), beta,
                            c.block(ic, jc, mb, nb), chunk_k, micro,
                            opt.pool);
    }
  }
}

/// Back-compatible spelling: chunk_k + pool, auto-dispatched kernel,
/// unblocked C (exactly the PR 5 path).
template <class T>
void gemm_tiled(T alpha, util::MatrixView<const T> a,
                util::MatrixView<const T> b, T beta, util::MatrixView<T> c,
                std::size_t chunk_k = 300, util::ThreadPool* pool = nullptr) {
  GemmOptions opt;
  opt.chunk_k = chunk_k;
  opt.pool = pool;
  gemm_tiled<T>(alpha, a, b, beta, c, opt);
}

/// Column-major GEMM derived from the row-major kernel by operand swap
/// (paper footnote 3: transposing both sides of C_cm = A_cm * B_cm yields
/// C_rm = B_rm * A_rm, where each column-major matrix reinterprets in place
/// as its row-major transpose). All pointers address column-major data with
/// the given leading dimensions. The options apply to the swapped (row-
/// major) problem: mc blocks columns of the original C, nc its rows.
template <class T>
void gemm_tiled_colmajor(std::size_t m, std::size_t n, std::size_t k, T alpha,
                         const T* a, std::size_t lda, const T* b,
                         std::size_t ldb, T beta, T* c, std::size_t ldc,
                         const GemmOptions& opt) {
  // Column-major M x K with leading dimension lda == row-major K x M.
  const util::MatrixView<const T> a_t(a, k, m, lda);
  const util::MatrixView<const T> b_t(b, n, k, ldb);
  util::MatrixView<T> c_t(c, n, m, ldc);
  gemm_tiled<T>(alpha, b_t, a_t, beta, c_t, opt);
}

template <class T>
void gemm_tiled_colmajor(std::size_t m, std::size_t n, std::size_t k, T alpha,
                         const T* a, std::size_t lda, const T* b,
                         std::size_t ldb, T beta, T* c, std::size_t ldc,
                         std::size_t chunk_k = 300,
                         util::ThreadPool* pool = nullptr) {
  GemmOptions opt;
  opt.chunk_k = chunk_k;
  opt.pool = pool;
  gemm_tiled_colmajor<T>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, opt);
}

}  // namespace xphi::blas
