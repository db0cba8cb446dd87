// The right-looking LU stage, written once (paper Figure 5a): factor the
// panel [DL]i, swap rows, forward-solve the U block, update the trailing
// matrix. The paper's look-ahead schemes (Figures 5c and 8) only reorder
// these stages, so every single-node driver is a client that picks a
// trailing-update backend, and getrf_stages runs one of two schedules:
// none, or a look-ahead that updates the rest beside the next panel.
//   - getrf_blocked (below): the stage loop with the gemm_tiled update
//     (GemmUpdate). Serial, it runs no look-ahead and is the functional
//     oracle the other clients are tested against; on a pool it runs the
//     malleable look-ahead, one participant factoring the next panel while
//     the others claim the stage's GEMM tiles;
//   - lu::dag_lu_factor_t: DAG tasks calling factor_stage_panel and
//     update_stage_columns one panel-column at a time with a packed
//     PackCache update, and swap_stage_left in its post-pass;
//   - core::run_functional_hybrid_hpl: the stage loop with the
//     offload-engine update (core::OffloadUpdate) on the engine's own pool,
//     where one card participant factors the next panel before it joins its
//     card; the serve worker's offload path runs it with no look-ahead.
// hpl::run_distributed_hpl schedules its rank stage by a look-ahead subset
// count of its own; its row swaps and U blocks are messages.
//
// The kernels are the blocked critical-path ones from lu_kernels.h: the
// recursive panel factorization, one SwapPlan per stage and column range
// applied in fused cache-blocked passes, and the blocked TRSM. Each
// performs the same per-element arithmetic whatever the column split, pool,
// leading dimension or schedule, so every client's factors and pivots are
// bitwise identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstring>
#include <exception>
#include <functional>
#include <span>
#include <type_traits>

#include "blas/lu_kernels.h"
#include "blas/pack.h"
#include "util/aligned.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

/// Panel primitive: factors the (n-i0) x pw panel whose top-left corner is
/// (i0, i0) and makes its pivots ipiv[i0..i0+pw) absolute. Returns false on
/// an exactly zero pivot.
template <class T>
bool factor_stage_panel(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                        std::size_t i0, std::size_t pw,
                        const PanelOptions& panel) {
  auto piv = ipiv.subspan(i0, pw);
  if (!getrf_panel<T>(a.block(i0, i0, a.rows() - i0, pw), piv, panel))
    return false;
  for (std::size_t& p : piv) p += i0;
  return true;
}

/// Left-swap primitive: applies stage i0's interchanges to the columns left
/// of its panel in one fused pass.
template <class T>
void swap_stage_left(util::MatrixView<T> a, std::span<const std::size_t> ipiv,
                     std::size_t i0, std::size_t pw,
                     const PanelOptions& panel) {
  if (i0 == 0) return;
  laswp_fused<T>(a.block(0, 0, a.rows(), i0), ipiv, i0, i0 + pw, panel.pool,
                 panel.laswp_col_chunk);
}

/// Column-update primitive: for columns [c0, c0+ncols) right of stage i0's
/// panel, applies the stage's interchanges (one block-local SwapPlan, fused
/// pass), solves L11 * U = A12 for the U block, then calls
/// `update(l21, u, a22)`, which must compute a22 -= l21 * u. The last stage
/// has no rows below its panel and skips the update.
template <class T, class Update>
void update_stage_columns(util::MatrixView<T> a,
                          std::span<const std::size_t> ipiv, std::size_t i0,
                          std::size_t pw, std::size_t c0, std::size_t ncols,
                          const PanelOptions& panel, Update&& update) {
  if (ncols == 0) return;
  const std::size_t n = a.rows();
  SwapPlan plan;
  plan.pairs.reserve(pw);
  for (std::size_t t = 0; t < pw; ++t) {
    const std::size_t src = ipiv[i0 + t] - i0;
    if (src != t) plan.pairs.emplace_back(t, src);
  }
  plan.finalize();
  laswp_fused<T>(a.block(i0, c0, n - i0, ncols), plan, panel.pool,
                 panel.laswp_col_chunk);
  auto u = a.block(i0, c0, pw, ncols);
  trsm_left_lower_unit<T>(a.block(i0, i0, pw, pw), u, panel.pool);
  if (n > i0 + pw)
    update(util::MatrixView<const T>(a.block(i0 + pw, i0, n - i0 - pw, pw)),
           util::MatrixView<const T>(u),
           a.block(i0 + pw, c0, n - i0 - pw, ncols));
}

/// The gemm_tiled trailing update: a22 -= l21 * u with k = pw in one
/// chunk. Beside that call it hands out the same product as claimable
/// tasks over operands packed at tile(): one task per (row tile, column
/// tile) pair, each running the micro-kernel gemm_tiled runs on that tile,
/// so any claiming order gives gemm_tiled's bits.
template <class T>
class GemmUpdate {
 public:
  explicit GemmUpdate(int kernel = 0)
      : kernel_(kernel), micro_(detail::resolve_dispatch<T>(kernel, nullptr)) {}

  /// Serial: the pooled stage loop claims run_tile tasks instead.
  void operator()(util::MatrixView<const T> l21, util::MatrixView<const T> u,
                  util::MatrixView<T> a22) const {
    GemmOptions go;
    go.chunk_k = l21.cols();
    go.kernel = kernel_;
    gemm_tiled<T>(T{-1}, l21, u, T{1}, a22, go);
  }

  /// The geometry run_tile's operands must be packed at (dispatched_tile).
  TileGeometry tile() const { return micro_.tile; }

  /// Task t of a22 -= l21 * u: row tile t / u.tiles(), column tile
  /// t % u.tiles(). Distinct tasks write disjoint parts of a22.
  void run_tile(const PackedA<T>& l21, const PackedB<T>& u,
                util::MatrixView<T> a22, std::size_t t) const {
    const std::size_t rt = t / u.tiles();
    const std::size_t ct = t % u.tiles();
    micro_(l21.tile(rt), u.tile(ct), l21.depth(), T{-1}, T{1},
           a22.data() + rt * l21.tile_rows() * a22.ld() + ct * u.tile_cols(),
           a22.ld(), l21.tile_height(rt), u.tile_width(ct));
  }

 private:
  int kernel_;
  detail::MicroDispatch<T> micro_;
};

/// An update whose product can be claimed tile by tile (GemmUpdate): the
/// look-ahead claims its tiles on the stage loop's pool.
template <class U, class T>
concept ClaimableUpdate =
    requires(const U& u, const PackedA<T>& l21, const PackedB<T>& ub,
             util::MatrixView<T> a22, std::size_t t) {
      { u.tile() } -> std::same_as<TileGeometry>;
      u.run_tile(l21, ub, a22, t);
    };

/// An update that runs beside a task (core::OffloadUpdate): u(l21, ub, a22,
/// task) computes a22 -= l21 * ub while one of its participants first runs
/// task(), and rethrows the task's throw after the join.
template <class U, class T>
concept BesideUpdate =
    requires(const U& u, util::MatrixView<const T> l21,
             util::MatrixView<const T> ub, util::MatrixView<T> a22,
             const std::function<void()>& task) { u(l21, ub, a22, task); };

/// What a stage loop did, for drivers that report it.
struct StageLoopStats {
  std::size_t lookahead_panels = 0;  // panels factored beside an update
};

namespace detail {

/// The pooled look-ahead's buffers: the next panel's contiguous copy and
/// the stage's packed L21 and U (the next panel's columns and the rest).
/// One stage loop owns them and reuses them across its stages. Nothing is
/// thread_local: a stage loop's caller may be a coroutine rank that
/// resumes on another OS thread.
template <class T>
struct LookaheadBuffers {
  util::AlignedBuffer<T> panel;
  PackedA<T> l21;
  PackedB<T> u_next, u_rest;
};

/// factor_stage_panel, serial, on a contiguous copy of the panel
/// (ld = pw): the (n-i0) x pw panel is copied out, factored and copied
/// back, also when it fails. A tall in-place panel strides a whole matrix
/// row per element; the copy keeps its columns in a few cache lines. Same
/// arithmetic as in place, so the same bits.
template <class T>
bool factor_panel_copy(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                       std::size_t i0, std::size_t pw, PanelOptions panel,
                       util::AlignedBuffer<T>& buf) {
  const std::size_t m = a.rows() - i0;
  buf.resize_for_overwrite(m * pw);
  for (std::size_t r = 0; r < m; ++r)
    std::memcpy(buf.data() + r * pw, a.row(i0 + r) + i0, pw * sizeof(T));
  panel.pool = nullptr;
  auto piv = ipiv.subspan(i0, pw);
  const bool ok = getrf_panel<T>(util::MatrixView<T>(buf.data(), m, pw, pw),
                                 piv, panel);
  for (std::size_t r = 0; r < m; ++r)
    std::memcpy(a.row(i0 + r) + i0, buf.data() + r * pw, pw * sizeof(T));
  if (ok)
    for (std::size_t& p : piv) p += i0;
  return ok;
}

/// One stage of the look-ahead (see getrf_stages): stage i0's swap and
/// TRSM over every trailing column, the next panel's columns updated, then
/// the rest updated beside the next panel (trail0 = i0 + pw, width
/// next_pw), which one participant factors serially on a contiguous copy.
/// A ClaimableUpdate packs L21 and U once and runs the next panel's tiles
/// pooled; then in one dispatch the caller factors the panel and joins
/// while the other participants claim the rest's GEMM tiles. A
/// BesideUpdate runs both updates itself, the second beside the panel.
/// Returns whether the next panel factored; the rest is updated either way.
template <class T, class Update>
bool lookahead_stage(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                     std::size_t i0, std::size_t pw, std::size_t next_pw,
                     const PanelOptions& panel, const Update& update,
                     LookaheadBuffers<T>& buf) {
  const std::size_t n = a.rows();
  const std::size_t trail0 = i0 + pw;
  const std::size_t rest0 = trail0 + next_pw;
  const std::size_t m = n - trail0;
  update_stage_columns<T>(a, ipiv, i0, pw, trail0, m, panel,
                          [](auto, auto, auto) {});
  bool factored = false;
  const auto factor_next = [&] {
    factored =
        factor_panel_copy<T>(a, ipiv, trail0, next_pw, panel, buf.panel);
  };
  const util::MatrixView<const T> l21(a.block(trail0, i0, m, pw));
  const util::MatrixView<const T> u_next(a.block(i0, trail0, pw, next_pw));
  const util::MatrixView<const T> u_rest(a.block(i0, rest0, pw, n - rest0));
  const auto next = a.block(trail0, trail0, m, next_pw);
  const auto rest = a.block(trail0, rest0, m, n - rest0);
  if constexpr (!ClaimableUpdate<Update, T>) {
    update(l21, u_next, next);
    update(l21, u_rest, rest, factor_next);
    return factored;
  } else {
    util::ThreadPool& pool = *panel.pool;
    const TileGeometry g = update.tile();
    const std::size_t row_tiles = buf.l21.prepare(l21, g.rows);
    const std::size_t next_tiles = buf.u_next.prepare(u_next, g.cols);
    const std::size_t rest_tiles = buf.u_rest.prepare(u_rest, g.cols);
    pool.parallel_for(row_tiles + next_tiles + rest_tiles, [&](std::size_t t) {
      if (t < row_tiles) {
        buf.l21.pack_tile(t);
      } else if (t < row_tiles + next_tiles) {
        buf.u_next.pack_tile(t - row_tiles);
      } else {
        buf.u_rest.pack_tile(t - row_tiles - next_tiles);
      }
    });
    pool.parallel_for(row_tiles * next_tiles, [&](std::size_t t) {
      update.run_tile(buf.l21, buf.u_next, next, t);
    });

    const std::size_t tasks = row_tiles * rest_tiles;
    const std::size_t grain =
        std::max<std::size_t>(1, tasks / (4 * (pool.size() + 1)));
    std::atomic<std::size_t> claimed{0};
    // The panel allocates; a throw must not leave the dispatch while the
    // workers still use this frame, so it is forwarded after the join.
    std::exception_ptr panel_error;
    pool.run_with_caller([&](std::size_t participant) {
      if (participant == pool.size()) {
        try {
          factor_next();
        } catch (...) {
          panel_error = std::current_exception();
        }
      }
      for (;;) {
        const std::size_t lo =
            claimed.fetch_add(grain, std::memory_order_relaxed);
        if (lo >= tasks) return;
        for (std::size_t t = lo; t < std::min(tasks, lo + grain); ++t)
          update.run_tile(buf.l21, buf.u_rest, rest, t);
      }
    });
    if (panel_error) std::rethrow_exception(panel_error);
    return factored;
  }
}

}  // namespace detail

/// Stage loop: in-place blocked LU of the square matrix `a` with panel width
/// nb and trailing update `update` (see update_stage_columns). ipiv[i]
/// records the absolute row swapped with row i. Returns false on an exactly
/// zero pivot. `panel` carries the kernel knobs and the pool the panel,
/// swaps and TRSM run on.
///
/// The schedule (paper Figure 8):
///   - no pool, or an update that is neither a ClaimableUpdate nor a
///     BesideUpdate: each stage updates its whole trailing matrix, then the
///     next panel is factored (on pooled kernels when there is a pool);
///   - a pool and such an update: the look-ahead on that one pool (the
///     paper's §IV dynamic look-ahead with the panel team regrouped into
///     the update). The first panel, the swaps, the TRSM and the next
///     panel's columns run first; then one participant factors the next
///     panel serially on a contiguous copy while the others update the rest
///     (detail::lookahead_stage). An offload update's pool is its engine's.
/// Both schedules give the same bits.
template <class T, class Update>
bool getrf_stages(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                  std::size_t nb, const PanelOptions& panel, Update&& update,
                  StageLoopStats* stats = nullptr) {
  const std::size_t n = a.rows();
  assert(a.cols() == n && ipiv.size() >= n);
  using U = std::remove_cvref_t<Update>;
  constexpr bool kLookahead = ClaimableUpdate<U, T> || BesideUpdate<U, T>;
  detail::LookaheadBuffers<T> buffers;
  if (n == 0) return true;
  if (!factor_stage_panel<T>(a, ipiv, 0, std::min(nb, n), panel)) return false;
  for (std::size_t i0 = 0; i0 < n; i0 += nb) {
    const std::size_t pw = std::min(nb, n - i0);
    swap_stage_left<T>(a, ipiv, i0, pw, panel);
    const std::size_t trail0 = i0 + pw;
    if (trail0 >= n) break;
    const std::size_t next_pw = std::min(nb, n - trail0);
    if constexpr (kLookahead) {
      if (panel.pool != nullptr) {
        if (!detail::lookahead_stage<T>(a, ipiv, i0, pw, next_pw, panel,
                                        update, buffers))
          return false;
        if (stats != nullptr) ++stats->lookahead_panels;
        continue;
      }
    }
    update_stage_columns<T>(a, ipiv, i0, pw, trail0, n - trail0, panel,
                            update);
    if (!factor_stage_panel<T>(a, ipiv, trail0, next_pw, panel)) return false;
  }
  return true;
}

/// In-place blocked LU of the square matrix `a` with panel width nb: the
/// stage loop with the gemm_tiled update (GemmUpdate), serial without a
/// pool and the malleable look-ahead on `pool` (getrf_stages). ipiv[i]
/// records the absolute row swapped with row i. Returns false on an exactly
/// zero pivot. `panel` carries the recursion cutoff, LASWP chunk and
/// micro-kernel knobs; its pool field is overridden by `pool`.
template <class T>
bool getrf_blocked(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                   std::size_t nb = 64, util::ThreadPool* pool = nullptr,
                   PanelOptions panel = {}) {
  panel.pool = pool;
  return getrf_stages<T>(a, ipiv, nb, panel,
                         GemmUpdate<T>(panel.microkernel));
}

}  // namespace xphi::blas
