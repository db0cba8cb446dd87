// The right-looking LU stage, written once (paper Figure 5a): factor the
// panel [DL]i, swap rows, forward-solve the U block, update the trailing
// matrix. The paper's look-ahead schemes (Figures 5c and 8) only reorder
// these stages, so every single-node driver is a client that picks a
// trailing-update backend and a schedule:
//   - getrf_blocked (below): the stage loop with a pooled gemm_tiled update
//     and no look-ahead — the functional oracle the other clients are
//     tested against;
//   - lu::dag_lu_factor_t: DAG tasks calling factor_stage_panel and
//     update_stage_columns one panel-column at a time with a packed
//     PackCache update, and swap_stage_left in its post-pass;
//   - core::run_functional_hybrid_hpl and the serve worker's offload path:
//     the stage loop with the offload-engine update (core::OffloadUpdate)
//     under a Figure 8 look-ahead policy.
// hpl::run_distributed_hpl schedules its rank stage by the same
// look-ahead subset count; its row swaps and U blocks are messages.
//
// The kernels are the blocked critical-path ones from lu_kernels.h: the
// recursive panel factorization, one SwapPlan per stage and column range
// applied in fused cache-blocked passes, and the blocked TRSM. Each
// performs the same per-element arithmetic whatever the column split, pool
// or schedule, so every client's factors and pivots are bitwise identical.
#pragma once

#include <algorithm>
#include <future>
#include <span>

#include "blas/lu_kernels.h"
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

/// What a stage loop did, for drivers that report it.
struct StageLoopStats {
  std::size_t lookahead_panels = 0;  // panels factored concurrently
  std::size_t column_updates = 0;    // column subsets updated under look-ahead
};

/// Stage loop: in-place blocked LU of the square matrix `a` with panel width
/// nb and trailing update `update` (see update_stage_columns). ipiv[i]
/// records the absolute row swapped with row i. Returns false on an exactly
/// zero pivot. `panel` carries the kernel knobs and the pool the panel,
/// swaps and TRSM run on.
///
/// `lookahead_subsets` is the schedule (paper Figure 8). 0: each stage
/// updates its whole trailing matrix, then the next panel is factored. k > 0:
/// each stage updates the next panel's columns first, factors that panel on
/// a concurrent thread, and meanwhile updates the remaining columns in k
/// subsets. A look-ahead panel runs beside the update, so it needs
/// panel.pool == nullptr.
template <class T, class Update>
bool getrf_stages(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                  std::size_t nb, const PanelOptions& panel, Update&& update,
                  int lookahead_subsets = 0, StageLoopStats* stats = nullptr) {
  const std::size_t n = a.rows();
  assert(a.cols() == n && ipiv.size() >= n);
  assert(lookahead_subsets == 0 || panel.pool == nullptr);
  StageLoopStats local;
  StageLoopStats& st = stats != nullptr ? *stats : local;
  if (n == 0) return true;
  if (!factor_stage_panel<T>(a, ipiv, 0, std::min(nb, n), panel)) return false;
  for (std::size_t i0 = 0; i0 < n; i0 += nb) {
    const std::size_t pw = std::min(nb, n - i0);
    swap_stage_left<T>(a, ipiv, i0, pw, panel);
    const std::size_t trail0 = i0 + pw;
    if (trail0 >= n) break;
    const std::size_t next_pw = std::min(nb, n - trail0);
    const auto columns = [&](std::size_t c0, std::size_t ncols) {
      update_stage_columns<T>(a, ipiv, i0, pw, c0, ncols, panel, update);
    };
    if (lookahead_subsets == 0) {
      columns(trail0, n - trail0);
      if (!factor_stage_panel<T>(a, ipiv, trail0, next_pw, panel))
        return false;
      continue;
    }
    columns(trail0, next_pw);
    ++st.column_updates;
    auto next_panel = std::async(std::launch::async, [&] {
      return factor_stage_panel<T>(a, ipiv, trail0, next_pw, panel);
    });
    const std::size_t rest0 = trail0 + next_pw;
    const std::size_t chunk = std::max<std::size_t>(
        1, (n - rest0 + lookahead_subsets - 1) / lookahead_subsets);
    for (std::size_t c0 = rest0; c0 < n; c0 += chunk) {
      columns(c0, std::min(chunk, n - c0));
      ++st.column_updates;
    }
    if (!next_panel.get()) return false;
    ++st.lookahead_panels;
  }
  return true;
}

/// In-place blocked LU of the square matrix `a` with panel width nb: the
/// stage loop with a gemm_tiled trailing update and no look-ahead.
/// ipiv[i] records the absolute row swapped with row i. Returns false on an
/// exactly zero pivot. `panel` carries the recursion cutoff, LASWP chunk and
/// micro-kernel knobs; its pool field is overridden by `pool`.
template <class T>
bool getrf_blocked(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                   std::size_t nb = 64, util::ThreadPool* pool = nullptr,
                   PanelOptions panel = {}) {
  panel.pool = pool;
  GemmOptions go;
  go.kernel = panel.microkernel;
  go.pool = pool;
  return getrf_stages<T>(
      a, ipiv, nb, panel,
      [&](util::MatrixView<const T> l21, util::MatrixView<const T> u,
          util::MatrixView<T> a22) {
        go.chunk_k = l21.cols();
        gemm_tiled<T>(T{-1}, l21, u, T{1}, a22, go);
      });
}

}  // namespace xphi::blas
