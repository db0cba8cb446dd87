// The LU building blocks the Linpack drivers compose (paper Section IV):
// DGETRF panel factorization with partial pivoting, DLASWP row swapping and
// DTRSM forward solve, plus the triangular substitutions for the final
// Ax = b solve. All operate in place on row-major views.
//
// The panel / swap / TRSM chain is the look-ahead schedulers' critical path
// (the code Figures 5 and 8 pipeline around), so the hot variants here are
// blocked and pool-parallel:
//   - getrf_panel is a recursive right-looking factorization (configurable
//     cutoff PanelOptions::nb_min) whose right-half update runs through the
//     packed gemm_tiled micro-kernel, with a ThreadPool-parallel column-split
//     iamax reduction and row-parallel rank updates on tall panels;
//   - laswp_fused composes a whole panel's interchanges (a SwapPlan, built
//     once per panel) into one permutation and applies it as disjoint
//     cycles — each row moves once, instead of one full-width sweep per
//     pivot — column-chunked across the pool;
//   - trsm_left_lower_unit / trsm_left_upper are cache-blocked
//     substitutions: L2-sized column chunks, cut to one per participant
//     when B is narrower, fan out across the pool and the k-loop runs
//     register-blocked updates whose rank follows the dispatched
//     micro-kernel's M_r, with per-element operation order identical to
//     the scalar reference.
// The *_unblocked scalar kernels are kept both as the leaf/diagonal cases
// and as the seed reference implementations (bench_panel measures the two
// generations against each other; the panel tests pin their equivalence).
//
// Determinism contract: for a given operand shape the blocked kernels
// perform the same per-element accumulation order no matter how the caller
// splits columns or whether a pool is supplied, so every scheduled driver
// (DAG, static look-ahead, hybrid, distributed) produces bitwise-identical
// factors to the sequential blocked oracle.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "blas/gemm_tiled.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

template <class T>
void trsm_left_lower_unit(util::MatrixView<const T> l, util::MatrixView<T> b,
                          util::ThreadPool* pool = nullptr);
template <class T>
bool trsm_left_upper(util::MatrixView<const T> u, util::MatrixView<T> b,
                     util::ThreadPool* pool = nullptr);

/// Column-chunk width of the blocked TRSMs: ~1 MiB of right-hand side per
/// chunk, so the solved rows a chunk keeps re-reading stay L2-resident
/// across the whole substitution. A pure shape function — and since each
/// column's arithmetic is independent, any chunking is bitwise-identical to
/// the unchunked sweep regardless.
template <class T>
constexpr std::size_t trsm_col_chunk(std::size_t n) {
  const std::size_t budget = (std::size_t{1} << 20) / sizeof(T);
  return std::max<std::size_t>(std::size_t{64}, budget / (n == 0 ? 1 : n));
}

/// Column-chunk width the blocked TRSMs actually run: the L2 chunk, cut
/// down so `cols` columns give every participant (pool workers + caller)
/// a chunk — otherwise a U block narrower than trsm_col_chunk (every
/// trailing width <= 2048 at nb = 64) runs as one serial chunk on the
/// caller. Widths are multiples of 16 (whole vectors at every ISA tier),
/// floor 16. Still a pure function of shape and pool width, and
/// bitwise-neutral like any chunking.
template <class T>
constexpr std::size_t trsm_chunk_width(std::size_t n, std::size_t cols,
                                       std::size_t participants) {
  constexpr std::size_t kQuantum = 16;
  const std::size_t p = participants == 0 ? 1 : participants;
  const std::size_t share = (cols + p - 1) / p;
  const std::size_t rounded = (share + kQuantum - 1) / kQuantum * kQuantum;
  return std::max(kQuantum, std::min(trsm_col_chunk<T>(n), rounded));
}

/// Register-block rank of the blocked TRSM k-loops, inherited from the
/// dispatched GEMM micro-kernel's M_r (wider register files carry more
/// solved-row streams per destination-row pass). Each destination element's
/// subtraction chain stays strictly sequential in k for *any* rank, so the
/// choice — like the kernel-shape dispatch it follows — is bitwise-neutral.
template <class T>
std::size_t trsm_unroll_rank() {
  const auto sel = mk::select_kernel<T>(0);
  const std::size_t mr = sel ? sel.mr() : 4;
  if (mr >= 8) return 8;
  if (mr >= 6) return 6;
  return 4;
}

/// Default column-chunk width of the fused LASWP pass (elements). One chunk
/// of all jb swaps touches 2*jb rows x kLaswpColChunk columns — sized so the
/// working set stays cache-resident while a pivot pass streams over it.
inline constexpr std::size_t kLaswpColChunk = 256;

/// Row count above which the pivot search and rank-1 updates of the
/// unblocked panel split across the pool (below it the dispatch overhead
/// dwarfs the scan).
inline constexpr std::size_t kPanelParallelMinRows = 512;

/// Index of the element with the largest magnitude in column `col` of `a`,
/// searching rows [row0, a.rows()). Ties keep the lowest index (strict `>`);
/// NaN entries are never selected unless the very first element is NaN (the
/// LAPACK iamax quirk — comparisons against a NaN running max are false).
template <class T>
std::size_t iamax_col(util::MatrixView<const T> a, std::size_t col,
                      std::size_t row0) {
  std::size_t best = row0;
  T best_abs = std::abs(a(row0, col));
  for (std::size_t r = row0 + 1; r < a.rows(); ++r) {
    const T v = std::abs(a(r, col));
    if (v > best_abs) {
      best_abs = v;
      best = r;
    }
  }
  return best;
}

/// Pool-parallel iamax: the column splits into one contiguous row range per
/// participant; partial maxima combine in range order with the same strict
/// `>` the serial scan uses, so the selected pivot is identical — including
/// tie-breaks and the NaN-at-row0 sticky case (range 0 seeds its running max
/// from the first element exactly like the serial scan; later ranges seed
/// from -inf so an interior NaN cannot mask a larger later value).
template <class T>
std::size_t iamax_col(util::MatrixView<const T> a, std::size_t col,
                      std::size_t row0, util::ThreadPool* pool) {
  const std::size_t rows = a.rows() - row0;
  if (pool == nullptr || rows < kPanelParallelMinRows)
    return iamax_col<T>(a, col, row0);
  const std::size_t parts = pool->size() + 1;
  const std::size_t chunk = (rows + parts - 1) / parts;
  std::vector<std::pair<T, std::size_t>> part_best(
      parts, {T{}, std::numeric_limits<std::size_t>::max()});
  pool->parallel_for(
      parts,
      [&](std::size_t p) {
        const std::size_t lo = row0 + p * chunk;
        const std::size_t hi = std::min(a.rows(), lo + chunk);
        if (lo >= hi) return;
        std::size_t best = lo;
        T best_abs = p == 0 ? std::abs(a(lo, col))
                            : (std::numeric_limits<T>::has_infinity
                                   ? -std::numeric_limits<T>::infinity()
                                   : std::numeric_limits<T>::lowest());
        for (std::size_t r = lo + (p == 0 ? 1 : 0); r < hi; ++r) {
          const T v = std::abs(a(r, col));
          if (v > best_abs) {
            best_abs = v;
            best = r;
          }
        }
        part_best[p] = {best_abs, best};
      },
      /*grain=*/1);
  std::size_t best = part_best[0].second;
  T best_abs = part_best[0].first;
  for (std::size_t p = 1; p < parts; ++p) {
    if (part_best[p].second == std::numeric_limits<std::size_t>::max())
      continue;
    if (part_best[p].first > best_abs) {
      best_abs = part_best[p].first;
      best = part_best[p].second;
    }
  }
  return best;
}

/// Swaps rows r1 and r2 across all columns of `a`.
template <class T>
void swap_rows(util::MatrixView<T> a, std::size_t r1, std::size_t r2) {
  if (r1 == r2) return;
  T* p1 = a.row(r1);
  T* p2 = a.row(r2);
  for (std::size_t c = 0; c < a.cols(); ++c) std::swap(p1[c], p2[c]);
}

/// DLASWP: applies the row interchanges recorded in ipiv[k0..k1) to `a`.
/// ipiv[i] is the absolute row index swapped with row i (LAPACK convention
/// with zero-based indices and no offset).
///
/// This is the sequential reference (one full-width sweep per pivot); the
/// drivers use make_swap_plan + laswp_fused, which applies the same
/// transposition sequence in one cache-blocked, pool-chunked pass.
template <class T>
void laswp(util::MatrixView<T> a, std::span<const std::size_t> ipiv,
           std::size_t k0, std::size_t k1, bool forward = true) {
  if (forward) {
    for (std::size_t i = k0; i < k1; ++i) swap_rows(a, i, ipiv[i]);
  } else {
    for (std::size_t i = k1; i-- > k0;) swap_rows(a, i, ipiv[i]);
  }
}

/// A panel's row-interchange sequence with the identity swaps filtered out —
/// built once per panel, applied to every column region (left of the panel,
/// right of the panel, look-ahead subsets) by laswp_fused. finalize()
/// composes the transpositions into the permutation's disjoint cycles, so
/// the composition cost is paid once per plan instead of once per region.
struct SwapPlan {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // applied in order
  // Cycle decomposition, filled by finalize(): cycle c covers
  // cyc_rows[cyc_start[c] .. cyc_start[c+1]); within a cycle, row rows[j]
  // receives rows[j + 1]'s data and the last row wraps to the first's
  // original contents. Cycles are ordered by their smallest row ascending.
  std::vector<std::size_t> cyc_rows;
  std::vector<std::size_t> cyc_start;
  std::size_t longest = 0;  // longest cycle (0 = nothing moves)
  bool finalized = false;

  bool empty() const noexcept { return pairs.empty(); }

  /// Compose the transposition sequence into disjoint cycles. Works over a
  /// compact sorted array of just the rows the plan names — O(p log p) in
  /// the pair count, independent of the matrix height. Scratch arrays are
  /// thread-local: the panel recursion finalizes a plan at every level, and
  /// per-call mallocs were a measurable slice of narrow-panel time.
  void finalize() {
    cyc_rows.clear();
    cyc_start.assign(1, 0);
    longest = 0;
    finalized = true;
    if (pairs.empty()) return;
    static thread_local std::vector<std::size_t> rows, comp;
    rows.clear();
    rows.reserve(pairs.size() * 2);
    for (const auto& [r1, r2] : pairs) {
      rows.push_back(r1);
      rows.push_back(r2);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    const auto index_of = [](std::size_t r) {
      return static_cast<std::size_t>(
          std::lower_bound(rows.begin(), rows.end(), r) - rows.begin());
    };
    // After the whole sequence, destination rows[i] holds source comp[i].
    comp.assign(rows.begin(), rows.end());
    for (const auto& [r1, r2] : pairs)
      std::swap(comp[index_of(r1)], comp[index_of(r2)]);
    // Harvest cycles in discovery order: `rows` is sorted, so cycles come
    // out ordered by their smallest row — for the disjoint transpositions
    // of a single panel that is exactly the sweep's traversal order.
    cyc_rows.reserve(rows.size());
    for (std::size_t i0 = 0; i0 < rows.size(); ++i0) {
      if (comp[i0] == rows[i0]) continue;  // fixed point or chain undone
      const std::size_t start = cyc_rows.size();
      std::size_t i = i0;
      do {
        cyc_rows.push_back(rows[i]);
        const std::size_t nxt = index_of(comp[i]);
        comp[i] = rows[i];  // mark visited; the cycle now owns the move
        i = nxt;
      } while (i != i0);
      longest = std::max(longest, cyc_rows.size() - start);
      cyc_start.push_back(cyc_rows.size());
    }
  }
};

/// Plan for the interchanges ipiv[k0..k1), in forward (factorization) or
/// backward (inverse permutation) application order. Self-swaps are dropped
/// and the cycle decomposition is prebuilt, ready to apply to any region.
inline SwapPlan make_swap_plan(std::span<const std::size_t> ipiv,
                               std::size_t k0, std::size_t k1,
                               bool forward = true) {
  SwapPlan plan;
  plan.pairs.reserve(k1 - k0);
  if (forward) {
    for (std::size_t i = k0; i < k1; ++i)
      if (ipiv[i] != i) plan.pairs.emplace_back(i, ipiv[i]);
  } else {
    for (std::size_t i = k1; i-- > k0;)
      if (ipiv[i] != i) plan.pairs.emplace_back(i, ipiv[i]);
  }
  plan.finalize();
  return plan;
}

/// Fused DLASWP: applies the plan's prebuilt cycle decomposition, so each
/// affected row moves exactly once — a 2-cycle is a plain swap, a longer
/// chain rotates through a spill buffer (L+1 row copies instead of the
/// sweep's 2(L-1)), and a row a chain returns to its origin drops out
/// entirely. For the all-disjoint plan of a single panel this degenerates
/// to exactly the sweep's swaps in the sweep's order (the 4-accesses-per-row
/// floor — there is nothing to save); the elision wins appear when batched
/// interchanges collide, as they do on block-cyclic local shares where
/// several panels' pivots land in one flush. The composition itself lives
/// in SwapPlan::finalize() and is paid once per panel, not once per
/// region; an unfinalized plan is finalized into a local copy. With a pool,
/// columns split into `col_chunk`-wide chunks (0 = kLaswpColChunk) that fan
/// out independently; serial callers keep full-width rows for streaming.
/// Pure data movement, no arithmetic: the result is exactly the sequential
/// sweep's for any order and chunking.
template <class T>
void laswp_fused(util::MatrixView<T> a, const SwapPlan& plan,
                 util::ThreadPool* pool = nullptr,
                 std::size_t col_chunk = 0) {
  if (plan.empty() || a.cols() == 0) return;
  if (!plan.finalized) {
    SwapPlan owned;
    owned.pairs = plan.pairs;
    owned.finalize();
    laswp_fused<T>(a, owned, pool, col_chunk);
    return;
  }
  const std::size_t ncycles = plan.cyc_start.size() - 1;
  if (ncycles == 0) return;  // every chain undid itself
  if (col_chunk == 0) col_chunk = kLaswpColChunk;
  const std::size_t chunks =
      pool != nullptr ? (a.cols() + col_chunk - 1) / col_chunk : 1;
  const std::size_t width = chunks > 1 ? col_chunk : a.cols();
  auto body = [&](std::size_t ci) {
    const std::size_t c0 = ci * width;
    const std::size_t w = std::min(width, a.cols() - c0);
    // Rotation scratch for chains; thread-local so steady-state applies
    // (every panel of a factorization) never touch the allocator.
    static thread_local std::vector<T> spill;
    if (plan.longest > 2 && spill.size() < w) spill.resize(w);
    std::size_t cy = 0;
    while (cy < ncycles) {
      const std::size_t* rows = plan.cyc_rows.data() + plan.cyc_start[cy];
      const std::size_t len = plan.cyc_start[cy + 1] - plan.cyc_start[cy];
      if (len == 2) {
        T* p1 = a.row(rows[0]) + c0;
        T* p2 = a.row(rows[1]) + c0;
        for (std::size_t c = 0; c < w; ++c) std::swap(p1[c], p2[c]);
        ++cy;
        continue;
      }
      const T* first = a.row(rows[0]) + c0;
      std::copy(first, first + w, spill.data());
      for (std::size_t j = 0; j + 1 < len; ++j) {
        const T* nxt = a.row(rows[j + 1]) + c0;
        std::copy(nxt, nxt + w, a.row(rows[j]) + c0);
      }
      std::copy(spill.data(), spill.data() + w, a.row(rows[len - 1]) + c0);
      ++cy;
    }
  };
  if (chunks > 1) {
    pool->parallel_for(chunks, body, /*grain=*/1);
  } else {
    body(0);
  }
}

/// Convenience: plan + fused application of ipiv[k0..k1) in one call.
/// Regions narrower than one column chunk can neither fan out nor amortize
/// the plan composition — there the pivot-order sweep is the same data
/// movement with zero setup, so they dispatch straight to it. The result is
/// identical either way (the panel recursion leans on this for its
/// half-width applies; trailing-matrix-scale regions take the plan path).
template <class T>
void laswp_fused(util::MatrixView<T> a, std::span<const std::size_t> ipiv,
                 std::size_t k0, std::size_t k1,
                 util::ThreadPool* pool = nullptr,
                 std::size_t col_chunk = 0) {
  const std::size_t chunk = col_chunk != 0 ? col_chunk : kLaswpColChunk;
  if (a.cols() < chunk) {
    laswp<T>(a, ipiv, k0, k1);
    return;
  }
  laswp_fused<T>(a, make_swap_plan(ipiv, k0, k1), pool, col_chunk);
}

/// Unblocked DGETRF of an m x n panel (m >= n): right-looking with partial
/// pivoting. Writes pivots into ipiv[0..n) as row indices local to the view.
/// Returns false if an exactly zero pivot is hit (matrix singular).
///
/// With a pool and a tall panel the pivot search is the chunked iamax
/// reduction and the column scaling + rank-1 update fan out row-wise; both
/// are bitwise-identical to the serial path (rows are independent, and the
/// scale of a(r, j) fuses into row r's own update).
template <class T>
bool getrf_unblocked(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                     util::ThreadPool* pool = nullptr) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = m < n ? m : n;
  assert(ipiv.size() >= steps);
  for (std::size_t j = 0; j < steps; ++j) {
    const std::size_t p = iamax_col<T>(a, j, j, pool);
    ipiv[j] = p;
    swap_rows(a, j, p);
    const T pivot = a(j, j);
    if (pivot == T{}) return false;
    const T inv = T{1} / pivot;
    const std::size_t rows = m - j - 1;
    const T* urow = a.row(j);
    auto row_body = [&](std::size_t t) {
      const std::size_t r = j + 1 + t;
      T* arow = a.row(r);
      arow[j] *= inv;
      const T l = arow[j];
      if (l == T{}) return;
      for (std::size_t c = j + 1; c < n; ++c) arow[c] -= l * urow[c];
    };
    if (pool != nullptr && rows >= kPanelParallelMinRows) {
      pool->parallel_for(rows, row_body);
    } else {
      for (std::size_t t = 0; t < rows; ++t) row_body(t);
    }
  }
  return true;
}

/// Tuning knobs of the recursive panel factorization. bench_tune sweeps the
/// two size knobs offline (tune::spaces::panel()); 0 keeps the built-in
/// default.
struct PanelOptions {
  /// Column cutoff below which the recursion bottoms out in the unblocked
  /// scalar kernel.
  std::size_t nb_min = 8;
  /// Column-chunk width of the fused LASWP passes (0 = kLaswpColChunk).
  std::size_t laswp_col_chunk = 0;
  /// Micro-kernel registry shape id for the packed GEMM updates (mr*100+nr;
  /// 0 = auto-dispatch). Bitwise-neutral — every registered shape
  /// accumulates identically — so any caller can set it freely.
  int microkernel = 0;
  /// Worker pool for the iamax reduction, rank updates, fused swaps and the
  /// packed GEMM updates; null = serial (same results either way).
  util::ThreadPool* pool = nullptr;
};

/// Recursive right-looking DGETRF of an m x n panel (m >= n). Splits the
/// columns, factors the left half, applies it to the right half — fused
/// swap pass, blocked TRSM, packed gemm_tiled update — then recurses into
/// the trailing right half. This is the "highly optimized panel
/// factorization" shape the native Linpack uses (paper Section IV).
template <class T>
bool getrf_panel(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                 const PanelOptions& options = {}) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t nb_min = options.nb_min > 0 ? options.nb_min : 8;
  if (n <= nb_min || m <= 1)
    return getrf_unblocked<T>(a, ipiv, options.pool);
  const std::size_t n1 = n / 2;
  const std::size_t n2 = n - n1;

  auto left = a.block(0, 0, m, n1);
  if (!getrf_panel<T>(left, ipiv.subspan(0, n1), options)) return false;

  // Fused swap + TRSM + GEMM of the right half against the factored left.
  auto right = a.block(0, n1, m, n2);
  laswp_fused<T>(right, std::span<const std::size_t>(ipiv.data(), n1), 0, n1,
                 options.pool, options.laswp_col_chunk);
  auto l11 = a.block(0, 0, n1, n1);
  auto b_top = a.block(0, n1, n1, n2);
  trsm_left_lower_unit<T>(l11, b_top, options.pool);
  if (m > n1) {
    auto a21 = a.block(n1, 0, m - n1, n1);
    auto b_bot = a.block(n1, n1, m - n1, n2);
    GemmOptions go;
    go.chunk_k = n1 < 300 ? (n1 ? n1 : 1) : 300;
    go.kernel = options.microkernel;
    go.pool = options.pool;
    gemm_tiled<T>(T{-1}, a21, b_top, T{1}, b_bot, go);
  }
  auto bottom = a.block(n1, n1, m - n1, n2);
  if (!getrf_panel<T>(bottom, ipiv.subspan(n1, n2), options)) return false;
  // Adjust the second half's pivots to be panel-relative and apply them to
  // the left columns in one fused pass.
  for (std::size_t i = 0; i < n2; ++i) ipiv[n1 + i] += n1;
  auto left_cols = a.block(0, 0, m, n1);
  laswp_fused<T>(left_cols, std::span<const std::size_t>(ipiv.data(), n), n1,
                 n, options.pool, options.laswp_col_chunk);
  return true;
}

/// Back-compatible spelling: `leaf` is the recursion cutoff.
template <class T>
bool getrf_panel(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                 std::size_t leaf) {
  PanelOptions options;
  options.nb_min = leaf;
  return getrf_panel<T>(a, ipiv, options);
}

/// Scalar DTRSM, left side, lower triangular, unit diagonal: solves
/// L * X = B in place (B becomes X). The seed kernel — kept as the
/// diagonal-block case of the blocked solve and as the bench baseline.
template <class T>
void trsm_left_lower_unit_unblocked(util::MatrixView<const T> l,
                                    util::MatrixView<T> b) {
  const std::size_t n = l.rows();
  assert(l.cols() == n && b.rows() == n);
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

namespace detail {

/// One column chunk of the blocked forward substitution, register-blocked
/// at compile-time rank R: each destination-row pass streams R solved rows,
/// subtracting them in ascending k order (a strictly sequential chain per
/// element — bitwise-identical to the scalar sweep for any R).
template <class T, std::size_t R>
void trsm_lower_cols(util::MatrixView<const T> l, util::MatrixView<T> b,
                     std::size_t c0, std::size_t w) {
  const std::size_t n = l.rows();
  for (std::size_t i = 1; i < n; ++i) {
    T* bi = b.row(i) + c0;
    std::size_t kk = 0;
    for (; kk + R <= i; kk += R) {
      T lv[R];
      const T* br[R];
      for (std::size_t u = 0; u < R; ++u) {
        lv[u] = l(i, kk + u);
        br[u] = b.row(kk + u) + c0;
      }
      for (std::size_t c = 0; c < w; ++c) {
        T v = bi[c];
        for (std::size_t u = 0; u < R; ++u) v -= lv[u] * br[u][c];
        bi[c] = v;
      }
    }
    for (; kk < i; ++kk) {
      const T lik = l(i, kk);
      const T* bk = b.row(kk) + c0;
      for (std::size_t c = 0; c < w; ++c) bi[c] -= lik * bk[c];
    }
  }
}

/// Backward-substitution sibling of trsm_lower_cols (plus the diagonal
/// scaling). The caller has already verified the diagonal is nonzero.
template <class T, std::size_t R>
void trsm_upper_cols(util::MatrixView<const T> u, util::MatrixView<T> b,
                     std::size_t c0, std::size_t w) {
  const std::size_t n = u.rows();
  for (std::size_t i = n; i-- > 0;) {
    T* bi = b.row(i) + c0;
    std::size_t kk = i + 1;
    for (; kk + R <= n; kk += R) {
      T uv[R];
      const T* br[R];
      for (std::size_t q = 0; q < R; ++q) {
        uv[q] = u(i, kk + q);
        br[q] = b.row(kk + q) + c0;
      }
      for (std::size_t c = 0; c < w; ++c) {
        T v = bi[c];
        for (std::size_t q = 0; q < R; ++q) v -= uv[q] * br[q][c];
        bi[c] = v;
      }
    }
    for (; kk < n; ++kk) {
      const T uik = u(i, kk);
      const T* bk = b.row(kk) + c0;
      for (std::size_t c = 0; c < w; ++c) bi[c] -= uik * bk[c];
    }
    const T inv = T{1} / u(i, i);
    for (std::size_t c = 0; c < w; ++c) bi[c] *= inv;
  }
}

}  // namespace detail

/// DTRSM, left side, lower triangular, unit diagonal: solves L * X = B in
/// place. Cache-blocked: B advances in column chunks sized so a chunk's
/// solved rows stay L2-resident across the whole substitution (the scalar
/// sweep re-streams every solved row from L3 once B outgrows the cache)
/// and narrow enough that every pool participant gets one
/// (trsm_chunk_width), and the k-loop runs register-blocked updates —
/// rank inherited from the dispatched micro-kernel (trsm_unroll_rank) —
/// that keep the destination
/// row in registers instead of re-loading and re-storing it per solved
/// row, the same sub-blocking idea as the GEMM micro-kernel's register
/// tiles. Columns are arithmetically independent and each element's
/// subtraction order is exactly the scalar loop's, so any chunking, rank,
/// and a pool fanning the chunks out are all bitwise-identical to the
/// unblocked reference.
template <class T>
void trsm_left_lower_unit(util::MatrixView<const T> l, util::MatrixView<T> b,
                          util::ThreadPool* pool) {
  const std::size_t n = l.rows();
  assert(l.cols() == n && b.rows() == n);
  if (n == 0 || b.cols() == 0) return;
  const std::size_t chunk = trsm_chunk_width<T>(
      n, b.cols(), pool != nullptr ? pool->size() + 1 : 1);
  const std::size_t chunks = (b.cols() + chunk - 1) / chunk;
  const std::size_t rank = trsm_unroll_rank<T>();
  auto body = [&](std::size_t ci) {
    const std::size_t c0 = ci * chunk;
    const std::size_t w = std::min(chunk, b.cols() - c0);
    switch (rank) {
      case 8:
        detail::trsm_lower_cols<T, 8>(l, b, c0, w);
        break;
      case 6:
        detail::trsm_lower_cols<T, 6>(l, b, c0, w);
        break;
      default:
        detail::trsm_lower_cols<T, 4>(l, b, c0, w);
        break;
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, body, /*grain=*/1);
  } else {
    for (std::size_t ci = 0; ci < chunks; ++ci) body(ci);
  }
}

/// Scalar DTRSM, left side, upper triangular, non-unit diagonal. The caller
/// must have verified the diagonal is nonzero (see trsm_left_upper).
template <class T>
void trsm_left_upper_unblocked(util::MatrixView<const T> u,
                               util::MatrixView<T> b) {
  const std::size_t n = u.rows();
  assert(u.cols() == n && b.rows() == n);
  for (std::size_t i = n; i-- > 0;) {
    T* bi = b.row(i);
    for (std::size_t kk = i + 1; kk < n; ++kk) {
      const T uik = u(i, kk);
      if (uik == T{}) continue;
      const T* bk = b.row(kk);
      for (std::size_t c = 0; c < b.cols(); ++c) bi[c] -= uik * bk[c];
    }
    const T inv = T{1} / u(i, i);
    for (std::size_t c = 0; c < b.cols(); ++c) bi[c] *= inv;
  }
}

/// DTRSM, left side, upper triangular, non-unit diagonal: solves U * X = B
/// in place. Cache-blocked back substitution with the same column-chunk +
/// micro-kernel-derived register blocking as trsm_left_lower_unit;
/// bitwise-identical to the unblocked reference for the same reason.
///
/// Singularity contract (mirrors getrf's zero-pivot report): if any diagonal
/// entry is exactly zero the solve returns false and leaves B untouched —
/// no division by zero, no partially-overwritten right-hand side.
template <class T>
bool trsm_left_upper(util::MatrixView<const T> u, util::MatrixView<T> b,
                     util::ThreadPool* pool) {
  const std::size_t n = u.rows();
  assert(u.cols() == n && b.rows() == n);
  for (std::size_t i = 0; i < n; ++i)
    if (u(i, i) == T{}) return false;
  if (n == 0 || b.cols() == 0) return true;
  const std::size_t chunk = trsm_chunk_width<T>(
      n, b.cols(), pool != nullptr ? pool->size() + 1 : 1);
  const std::size_t chunks = (b.cols() + chunk - 1) / chunk;
  const std::size_t rank = trsm_unroll_rank<T>();
  auto body = [&](std::size_t ci) {
    const std::size_t c0 = ci * chunk;
    const std::size_t w = std::min(chunk, b.cols() - c0);
    switch (rank) {
      case 8:
        detail::trsm_upper_cols<T, 8>(u, b, c0, w);
        break;
      case 6:
        detail::trsm_upper_cols<T, 6>(u, b, c0, w);
        break;
      default:
        detail::trsm_upper_cols<T, 4>(u, b, c0, w);
        break;
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, body, /*grain=*/1);
  } else {
    for (std::size_t ci = 0; ci < chunks; ++ci) body(ci);
  }
  return true;
}

/// Solves A x = b given the in-place LU factors and pivot vector of A.
/// b is overwritten with x.
template <class T>
void lu_solve_vector(util::MatrixView<const T> lu,
                     std::span<const std::size_t> ipiv, std::span<T> b) {
  const std::size_t n = lu.rows();
  assert(lu.cols() == n && b.size() == n && ipiv.size() >= n);
  // Apply the recorded interchanges to b.
  for (std::size_t i = 0; i < n; ++i)
    if (ipiv[i] != i) std::swap(b[i], b[ipiv[i]]);
  // Forward substitution with unit lower L.
  for (std::size_t i = 1; i < n; ++i) {
    T acc = b[i];
    const T* row = lu.row(i);
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * b[j];
    b[i] = acc;
  }
  // Back substitution with upper U.
  for (std::size_t i = n; i-- > 0;) {
    T acc = b[i];
    const T* row = lu.row(i);
    for (std::size_t j = i + 1; j < n; ++j) acc -= row[j] * b[j];
    b[i] = acc / row[i];
  }
}

}  // namespace xphi::blas
