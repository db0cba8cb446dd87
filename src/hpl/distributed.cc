#include "hpl/distributed.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <type_traits>

#include "blas/gemm_tiled.h"
#include "blas/lu_kernels.h"
#include "blas/residual.h"
#include "net/world.h"
#include "trace/timeline.h"
#include "util/rng.h"

namespace xphi::hpl {

namespace {

using net::Comm;
using net::Payload;
using net::Request;
using trace::SpanKind;
using util::Matrix;
using util::MatrixView;

// Message tags: each stage owns a kTagStride-wide window
// (stage * kTagStride + base).
constexpr int kTagStride = 64;
constexpr int kTagPanelGather = 0;
constexpr int kTagPanelBcast = 1;
constexpr int kTagSwap = 3;
constexpr int kTagUFirst = 4;  // subset 0's U block
constexpr int kTagURest = 5;   // the U block of the rest

/// Receive timeout handed to net::World: a mismatched (src, tag) surfaces as
/// a diagnostic instead of a hung run.
constexpr double kRecvTimeoutSeconds = 120;

/// Global column range [g0, g1).
struct ColSpan {
  std::size_t g0 = 0, g1 = 0;
};

// Every stage below is templated on the local scalar type T. All payloads
// stay std::vector<double>: a float widens to double exactly, so packing T
// values as doubles and narrowing on receipt is a bit-exact transport for
// T = float, and for T = double every cast is the identity — the fp64 path
// is instruction-for-instruction the pre-template code.
template <class T>
struct RankContext {
  const BlockCyclic* dist = nullptr;
  Comm* comm = nullptr;
  const DistributedHplOptions* options = nullptr;
  int prow = 0, pcol = 0;
  Matrix<T> local;  // local block-cyclic share, row-major
  std::chrono::steady_clock::time_point epoch;
  std::vector<trace::Span>* spans = nullptr;  // this rank's lane (optional)

  std::size_t lrows() const { return dist->local_rows(prow); }
  std::size_t lcols() const { return dist->local_cols(pcol); }

  /// First local row whose global index is >= g.
  std::size_t local_row_lower_bound(std::size_t g) const {
    std::size_t lo = 0;
    while (lo < lrows() && dist->global_row(prow, lo) < g) ++lo;
    return lo;
  }
  std::size_t local_col_lower_bound(std::size_t g) const {
    std::size_t lo = 0;
    while (lo < lcols() && dist->global_col(pcol, lo) < g) ++lo;
    return lo;
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }
  void record(SpanKind kind, double t0) {
    if (spans != nullptr)
      spans->push_back(
          {static_cast<std::size_t>(comm->rank()), kind, t0, now()});
  }
};

/// Local column intervals [lo, hi) covered by the global ranges, in order.
template <class T>
std::vector<std::pair<std::size_t, std::size_t>> local_intervals(
    const RankContext<T>& ctx, const std::vector<ColSpan>& ranges) {
  std::vector<std::pair<std::size_t, std::size_t>> iv;
  for (const ColSpan& r : ranges) {
    const std::size_t lo = ctx.local_col_lower_bound(r.g0);
    const std::size_t hi = ctx.local_col_lower_bound(r.g1);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  return iv;
}

/// The stage's pw x pw diagonal block of the broadcast packet, narrowed to
/// the local scalar (identity copy for T = double; values only, the TRSM
/// reads it immutably).
template <class T>
Matrix<T> l11_from_packet(const double* panel_data, std::size_t pw) {
  Matrix<T> l11(pw, pw);
  for (std::size_t r = 0; r < pw; ++r)
    for (std::size_t c = 0; c < pw; ++c)
      l11(r, c) = static_cast<T>(panel_data[r * pw + c]);
  return l11;
}

/// Packs this rank's rows with global index >= k0 of the pw panel columns:
/// [count, (global_row, pw values)...].
template <class T>
Payload pack_panel_rows(const RankContext<T>& ctx, std::size_t k0,
                        std::size_t pw) {
  const BlockCyclic& dist = *ctx.dist;
  const std::size_t lc0 = ctx.local_col_lower_bound(k0);
  const std::size_t lr0 = ctx.local_row_lower_bound(k0);
  Payload mine;
  mine.push_back(static_cast<double>(ctx.lrows() - lr0));
  for (std::size_t lr = lr0; lr < ctx.lrows(); ++lr) {
    mine.push_back(static_cast<double>(dist.global_row(ctx.prow, lr)));
    for (std::size_t c = 0; c < pw; ++c)
      mine.push_back(static_cast<double>(ctx.local(lr, lc0 + c)));
  }
  return mine;
}

/// Root only: assembles the gathered panel rows for stage bk (own message
/// plus one per other process row of the panel column), factors it in the
/// local scalar, and builds the broadcast packet
/// [pw absolute pivots | (n-k0) x pw factors].
template <class T>
Payload assemble_and_factor(RankContext<T>& ctx, std::size_t bk,
                            Payload mine) {
  const BlockCyclic& dist = *ctx.dist;
  Comm& comm = *ctx.comm;
  const Grid& grid = dist.grid();
  const std::size_t n = dist.n();
  const std::size_t nb = dist.nb();
  const std::size_t k0 = bk * nb;
  const std::size_t pw = std::min(nb, n - k0);
  const int pc = static_cast<int>(bk % grid.q);
  const int gather_tag = static_cast<int>(bk) * kTagStride + kTagPanelGather;

  std::vector<T> assembled((n - k0) * pw, T(0));
  auto unpack = [&](const Payload& msg) {
    std::size_t pos = 0;
    const std::size_t count = static_cast<std::size_t>(msg[pos++]);
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t g = static_cast<std::size_t>(msg[pos++]);
      for (std::size_t c = 0; c < pw; ++c)
        assembled[(g - k0) * pw + c] = static_cast<T>(msg[pos + c]);
      pos += pw;
    }
  };
  const double t_gather = ctx.now();
  unpack(mine);
  for (int prow = 0; prow < grid.p; ++prow) {
    const int src = grid.rank_of(prow, pc);
    if (src == comm.rank()) continue;
    unpack(comm.recv(src, gather_tag));
  }
  ctx.record(SpanKind::kBroadcast, t_gather);

  const double t_factor = ctx.now();
  MatrixView<T> panel(assembled.data(), n - k0, pw, pw);
  std::vector<std::size_t> piv(pw);
  const bool ok = blas::getrf_panel<T>(panel, piv);
  assert(ok && "singular panel in distributed HPL");
  (void)ok;
  ctx.record(SpanKind::kPanelFactor, t_factor);

  Payload packet;
  packet.reserve(pw + assembled.size());
  for (std::size_t t = 0; t < pw; ++t)
    packet.push_back(static_cast<double>(piv[t] + k0));  // absolute global
  for (const T v : assembled) packet.push_back(static_cast<double>(v));
  return packet;
}

/// Pending panel: either the packet itself (the factoring root) or an irecv
/// Request for it (everyone else).
struct PanelLaunch {
  bool have = false;
  Payload packet;
  Request req;
};

/// Start of stage nbk's panel: panel-column ranks isend their rows to the
/// stage root; the root assembles, factors, and isends the packet to every
/// other rank (flat fan-out — the pipelined broadcast depth is the
/// simulator's concern, the functional path needs the overlap structure);
/// everyone else posts an irecv and keeps computing.
template <class T>
PanelLaunch start_panel(RankContext<T>& ctx, std::size_t nbk) {
  const BlockCyclic& dist = *ctx.dist;
  Comm& comm = *ctx.comm;
  const Grid& grid = dist.grid();
  const std::size_t n = dist.n();
  const std::size_t nb = dist.nb();
  const std::size_t nk0 = nbk * nb;
  const std::size_t npw = std::min(nb, n - nk0);
  const int npc = static_cast<int>(nbk % grid.q);
  const int npr = static_cast<int>(nbk % grid.p);
  const int nroot = grid.rank_of(npr, npc);
  const int stage_tag = static_cast<int>(nbk) * kTagStride;

  PanelLaunch launch;
  if (ctx.pcol == npc) {
    Payload mine = pack_panel_rows(ctx, nk0, npw);
    if (comm.rank() != nroot) {
      comm.isend(nroot, stage_tag + kTagPanelGather, std::move(mine));
    } else {
      Payload packet = assemble_and_factor(ctx, nbk, std::move(mine));
      const double t0 = ctx.now();
      for (int r = 0; r < grid.ranks(); ++r)
        if (r != comm.rank())
          comm.isend(r, stage_tag + kTagPanelBcast, packet);
      ctx.record(SpanKind::kBroadcast, t0);
      launch.have = true;
      launch.packet = std::move(packet);
    }
  }
  if (comm.rank() != nroot)
    launch.req = comm.irecv(nroot, stage_tag + kTagPanelBcast);
  return launch;
}

template <class T>
Payload finish_panel(RankContext<T>& ctx, PanelLaunch launch) {
  if (launch.have) return std::move(launch.packet);
  const double t0 = ctx.now();
  Payload packet = launch.req.take();
  ctx.record(SpanKind::kBroadcast, t0);
  return packet;
}

/// Writes the factored panel rows back into their owners' local storage.
template <class T>
void write_back_panel(RankContext<T>& ctx, std::size_t k0, std::size_t pw,
                      const double* panel_data) {
  const BlockCyclic& dist = *ctx.dist;
  const std::size_t lc0 = ctx.local_col_lower_bound(k0);
  const std::size_t lr0 = ctx.local_row_lower_bound(k0);
  for (std::size_t lr = lr0; lr < ctx.lrows(); ++lr) {
    const std::size_t g = dist.global_row(ctx.prow, lr);
    for (std::size_t c = 0; c < pw; ++c)
      ctx.local(lr, lc0 + c) = static_cast<T>(panel_data[(g - k0) * pw + c]);
  }
}

/// Applies the stage's row interchanges to the local columns covered by
/// `ranges` (global column spans; the pw panel columns must not be inside
/// them — they were already swapped during the panel factorization). Each
/// interchange between two process rows is a point-to-point exchange of the
/// row segments. Rank-local swaps are batched into a SwapPlan and applied in
/// one fused cache-blocked pass per flush (blas::laswp_fused over each local
/// column interval). Buffered swaps commute with remote exchanges this rank
/// does not participate in; a remote exchange this rank *does* join may read
/// or write a buffered row, so the plan flushes right before it.
template <class T>
void swap_rows_ranges(RankContext<T>& ctx, int tag, const double* ipiv_stage,
                      std::size_t k0, std::size_t pw,
                      const std::vector<ColSpan>& ranges) {
  const BlockCyclic& dist = *ctx.dist;
  Comm& comm = *ctx.comm;
  const Grid& grid = dist.grid();
  const auto iv = local_intervals(ctx, ranges);
  std::size_t width = 0;
  for (const auto& [lo, hi] : iv) width += hi - lo;
  if (width == 0) return;  // consistent across the process column

  const double t0 = ctx.now();
  blas::SwapPlan local_plan;
  auto flush_local = [&] {
    if (local_plan.empty()) return;
    local_plan.finalize();  // compose once, apply to every interval
    for (const auto& [lo, hi] : iv) {
      auto region = ctx.local.view().block(0, lo, ctx.local.rows(), hi - lo);
      blas::laswp_fused<T>(region, local_plan);
    }
    local_plan = blas::SwapPlan{};
  };
  for (std::size_t t = 0; t < pw; ++t) {
    const std::size_t r1 = k0 + t;
    const std::size_t r2 = static_cast<std::size_t>(ipiv_stage[t]);
    if (r1 == r2) continue;
    const int o1 = dist.owner_prow(r1);
    const int o2 = dist.owner_prow(r2);
    if (o1 == o2) {
      if (ctx.prow == o1)
        local_plan.pairs.emplace_back(dist.local_row(r1), dist.local_row(r2));
    } else if (ctx.prow == o1 || ctx.prow == o2) {
      flush_local();
      const std::size_t lr = dist.local_row(ctx.prow == o1 ? r1 : r2);
      const int partner = grid.rank_of(ctx.prow == o1 ? o2 : o1, ctx.pcol);
      Payload out;
      out.reserve(width);
      for (const auto& [lo, hi] : iv)
        for (std::size_t c = lo; c < hi; ++c)
          out.push_back(static_cast<double>(ctx.local(lr, c)));
      comm.send(partner, tag, std::move(out));
      const Payload in = comm.recv(partner, tag);
      std::size_t pos = 0;
      for (const auto& [lo, hi] : iv)
        for (std::size_t c = lo; c < hi; ++c)
          ctx.local(lr, c) = static_cast<T>(in[pos++]);
    }
  }
  flush_local();
  ctx.record(SpanKind::kRowSwap, t0);
}

/// One U block in flight down a process column: `lc0`/`width` locate its
/// columns locally; the stage's owner row fills `u` by solving, the other
/// rows receive it through `req`.
struct USlot {
  bool owner = false;
  int tag = 0;
  std::size_t lc0 = 0, width = 0;
  Payload u;
  Request req;
};

/// Opens stage bk's U block for the global columns `cols`: rows other than
/// the owner post its irecv. Width 0 (a no-op slot) when this rank holds
/// none of the columns — consistent down the process column.
template <class T>
USlot start_u(RankContext<T>& ctx, std::size_t bk, int tag, ColSpan cols) {
  const Grid& grid = ctx.dist->grid();
  const int pr = static_cast<int>(bk % grid.p);
  USlot slot;
  slot.tag = tag;
  slot.lc0 = ctx.local_col_lower_bound(cols.g0);
  slot.width = ctx.local_col_lower_bound(cols.g1) - slot.lc0;
  slot.owner = ctx.prow == pr;
  if (slot.width > 0 && !slot.owner)
    slot.req = ctx.comm->irecv(grid.rank_of(pr, ctx.pcol), tag);
  return slot;
}

/// Completes a U block. The owner row solves L11 * U = A12 for the block's
/// local columns, writes U back in place, widens it into slot.u and isends
/// it down the process column; the other rows block on the irecv (the
/// recorded kBroadcast span is exactly the exposed transfer time).
template <class T>
void finish_u(RankContext<T>& ctx, std::size_t k0, std::size_t pw,
              const double* panel_data, USlot& slot) {
  if (slot.width == 0) return;
  if (!slot.owner) {
    const double t0 = ctx.now();
    slot.u = slot.req.take();
    ctx.record(SpanKind::kBroadcast, t0);
    return;
  }
  const std::size_t lr0 = ctx.dist->local_row(k0);
  const double t0 = ctx.now();
  Matrix<T> u(pw, slot.width);
  for (std::size_t r = 0; r < pw; ++r)
    for (std::size_t c = 0; c < slot.width; ++c)
      u(r, c) = ctx.local(lr0 + r, slot.lc0 + c);
  const Matrix<T> l11 = l11_from_packet<T>(panel_data, pw);
  blas::trsm_left_lower_unit<T>(l11.view(), u.view());
  for (std::size_t r = 0; r < pw; ++r)
    for (std::size_t c = 0; c < slot.width; ++c)
      ctx.local(lr0 + r, slot.lc0 + c) = u(r, c);
  ctx.record(SpanKind::kTrsm, t0);
  slot.u.resize(pw * slot.width);
  for (std::size_t i = 0; i < pw * slot.width; ++i)
    slot.u[i] = static_cast<double>(u.data()[i]);

  const Grid& grid = ctx.dist->grid();
  const double t1 = ctx.now();
  for (int prow = 0; prow < grid.p; ++prow)
    if (prow != ctx.prow)
      ctx.comm->isend(grid.rank_of(prow, ctx.pcol), slot.tag, slot.u);
  ctx.record(SpanKind::kBroadcast, t1);
}

/// L21 rows of the broadcast panel owned by this rank (trailing rows only).
template <class T>
Matrix<T> build_l21(const RankContext<T>& ctx, std::size_t k0,
                    std::size_t pw, const double* panel_data,
                    std::size_t lr_trail, std::size_t m_loc) {
  const BlockCyclic& dist = *ctx.dist;
  Matrix<T> l21(m_loc, pw);
  for (std::size_t r = 0; r < m_loc; ++r) {
    const std::size_t g = dist.global_row(ctx.prow, lr_trail + r);
    for (std::size_t c = 0; c < pw; ++c)
      l21(r, c) = static_cast<T>(panel_data[(g - k0) * pw + c]);
  }
  return l21;
}

/// Local trailing update A22 -= L21 * U restricted to the columns of `slot`
/// that fall inside `cols`. A column split accumulates each element over k
/// in the same order as the full-width update (see gemm_tiled.h), so it is
/// bitwise-neutral.
template <class T>
void update_range(RankContext<T>& ctx, std::size_t pw, const Matrix<T>& l21,
                  std::size_t lr_trail, std::size_t m_loc, const USlot& slot,
                  ColSpan cols) {
  if (m_loc == 0 || slot.width == 0) return;
  const std::size_t lo = ctx.local_col_lower_bound(cols.g0);
  const std::size_t hi = ctx.local_col_lower_bound(cols.g1);
  if (hi <= lo) return;
  assert(lo >= slot.lc0 && hi <= slot.lc0 + slot.width);
  const double t0 = ctx.now();
  MatrixView<const double> u(slot.u.data() + (lo - slot.lc0), pw, hi - lo,
                             slot.width);
  auto a22 = ctx.local.block(lr_trail, lo, m_loc, hi - lo);
  if (ctx.options->use_offload_engine) {
    if constexpr (std::is_same_v<T, double>) {
      core::offload_gemm_functional(-1.0, l21.view(), u, a22,
                                    ctx.options->offload);
    } else {
      // The offload engine computes in fp64. Widen the fp32 operands and
      // the update target (exact), run the engine, narrow the result back —
      // deterministic for a fixed config, so clean and faulted mixed runs
      // still match bitwise.
      Matrix<double> l21d(m_loc, pw);
      for (std::size_t r = 0; r < m_loc; ++r)
        for (std::size_t c = 0; c < pw; ++c)
          l21d(r, c) = static_cast<double>(l21(r, c));
      Matrix<double> a22d(m_loc, hi - lo);
      for (std::size_t r = 0; r < m_loc; ++r)
        for (std::size_t c = 0; c < hi - lo; ++c)
          a22d(r, c) = static_cast<double>(a22(r, c));
      core::offload_gemm_functional(-1.0, l21d.view(), u, a22d.view(),
                                    ctx.options->offload);
      for (std::size_t r = 0; r < m_loc; ++r)
        for (std::size_t c = 0; c < hi - lo; ++c)
          a22(r, c) = static_cast<T>(a22d(r, c));
    }
  } else {
    blas::GemmOptions go;
    go.chunk_k = pw;
    if constexpr (std::is_same_v<T, double>) {
      blas::gemm_tiled<double>(-1.0, l21.view(), u, 1.0, a22, go);
    } else {
      // Narrow the (exactly widened) U payload back to the local scalar;
      // packing from the contiguous copy yields the same packed operand as
      // packing the strided view would.
      Matrix<T> um(pw, hi - lo);
      for (std::size_t r = 0; r < pw; ++r)
        for (std::size_t c = 0; c < hi - lo; ++c)
          um(r, c) = static_cast<T>(u(r, c));
      blas::gemm_tiled<T>(T(-1), l21.view(), um.view(), T(1), a22, go);
    }
  }
  ctx.record(SpanKind::kGemm, t0);
}

/// One LU stage (Figure 8). Consumes this stage's factored packet and
/// returns the next stage's.
///
/// The row swap is one exchange per rank pair over every column. Subset 0
/// has its U solved and sent first, so its update — and the next panel's
/// launch — start as early as possible. With look-ahead, subset 0 is the
/// next panel's columns, and the rest [rest0, n) travels as ONE U message
/// per process row whose wide solve the owner row defers until after the
/// panel launch, hiding it under the next panel's gather/factor; every rank
/// then updates the rest while the panel travels (Figure 8b). Without it,
/// subset 0 is the whole trailing matrix and the next panel starts only
/// after the whole update (Figure 8a). Deferring the solve is
/// bitwise-neutral: the U rows it reads are disjoint (in both rows and
/// columns) from everything subset 0's update and the panel pack touch.
/// TRSM is independent per column and gemm_tiled per column split, so both
/// schedules yield the same bits.
template <class T>
Payload run_stage(RankContext<T>& ctx, std::size_t bk, Payload packet,
                  std::vector<double>& ipiv_all, bool lookahead) {
  const BlockCyclic& dist = *ctx.dist;
  const std::size_t n = dist.n();
  const std::size_t nb = dist.nb();
  const std::size_t k0 = bk * nb;
  const std::size_t pw = std::min(nb, n - k0);
  const int pc = static_cast<int>(bk % dist.grid().q);
  const int stage_tag = static_cast<int>(bk) * kTagStride;

  const double* ipiv_stage = packet.data();
  const double* panel_data = packet.data() + pw;
  for (std::size_t t = 0; t < pw; ++t) ipiv_all.push_back(ipiv_stage[t]);
  if (ctx.pcol == pc) write_back_panel(ctx, k0, pw, panel_data);

  const std::size_t trail_g0 = k0 + pw;
  if (trail_g0 >= n) {
    // Last stage: still apply the interchanges to the factored left part.
    swap_rows_ranges(ctx, stage_tag + kTagSwap, ipiv_stage, k0, pw, {{0, k0}});
    return {};
  }

  // Subset 0 is [trail_g0, rest0); the rest is [rest0, n).
  const std::size_t rest0 = lookahead ? std::min(n, trail_g0 + nb) : n;

  const std::size_t lr_trail = ctx.local_row_lower_bound(trail_g0);
  const std::size_t m_loc = ctx.lrows() - lr_trail;
  const Matrix<T> l21 =
      m_loc > 0 ? build_l21(ctx, k0, pw, panel_data, lr_trail, m_loc)
                : Matrix<T>();

  swap_rows_ranges(ctx, stage_tag + kTagSwap, ipiv_stage, k0, pw,
                   {{0, k0}, {trail_g0, n}});
  USlot first = start_u(ctx, bk, stage_tag + kTagUFirst, {trail_g0, rest0});
  USlot rest = start_u(ctx, bk, stage_tag + kTagURest, {rest0, n});
  finish_u(ctx, k0, pw, panel_data, first);
  update_range(ctx, pw, l21, lr_trail, m_loc, first, {trail_g0, rest0});
  PanelLaunch launch = start_panel(ctx, bk + 1);
  finish_u(ctx, k0, pw, panel_data, rest);
  update_range(ctx, pw, l21, lr_trail, m_loc, rest, {rest0, n});
  return finish_panel(ctx, std::move(launch));
}

/// Distributed block triangular solves: given the block-cyclic factors and
/// the (replicated) permuted right-hand side, computes x on every rank via
/// per-block row reductions to the diagonal owner and broadcasts of each
/// solved block (forward substitution with unit-lower L, then backward with
/// U). Arithmetic runs in the local scalar T — for Precision::kMixed this is
/// exactly "solve through the fp32 factors" — and the returned vector is the
/// exact widening of the T result. `solve_base` is the first message tag of
/// the solve's window ((2*blocks + 4)-tags wide plus 4 slack); the
/// refinement loop re-invokes the solve with a fresh window per iteration.
template <class T>
std::vector<double> distributed_solve(RankContext<T>& ctx,
                                      const std::vector<double>& rhs,
                                      int solve_base) {
  const BlockCyclic& dist = *ctx.dist;
  Comm& comm = *ctx.comm;
  const Grid& grid = dist.grid();
  const std::size_t n = dist.n();
  const std::size_t nb = dist.nb();
  const std::size_t blocks = dist.num_blocks();
  std::vector<int> everyone(grid.ranks());
  for (int r = 0; r < grid.ranks(); ++r) everyone[r] = r;

  std::vector<T> y(n, T(0));

  // --- Forward: L y = P b (unit lower). Blocks in increasing order. ---
  for (std::size_t k = 0; k < blocks; ++k) {
    const std::size_t k0 = k * nb;
    const std::size_t pw = std::min(nb, n - k0);
    const int pr = static_cast<int>(k % grid.p);
    const int pc = static_cast<int>(k % grid.q);
    const int diag = grid.rank_of(pr, pc);
    const int tag = solve_base + static_cast<int>(k) * 2;
    if (ctx.prow == pr) {
      // Partial sum over this rank's local columns with global index < k0.
      std::vector<T> partial(pw, T(0));
      const std::size_t lr0 = dist.local_row(k0);
      const std::size_t lc_end = ctx.local_col_lower_bound(k0);
      for (std::size_t lc = 0; lc < lc_end; ++lc) {
        const std::size_t g = dist.global_col(ctx.pcol, lc);
        for (std::size_t r = 0; r < pw; ++r)
          partial[r] += ctx.local(lr0 + r, lc) * y[g];
      }
      if (comm.rank() != diag) {
        Payload out(pw);
        for (std::size_t r = 0; r < pw; ++r)
          out[r] = static_cast<double>(partial[r]);
        comm.send(diag, tag, std::move(out));
      } else {
        for (int pcol = 0; pcol < grid.q; ++pcol) {
          const int src = grid.rank_of(pr, pcol);
          if (src == diag) continue;
          const Payload other = comm.recv(src, tag);
          for (std::size_t r = 0; r < pw; ++r)
            partial[r] += static_cast<T>(other[r]);
        }
        // Solve the unit-lower diagonal block.
        std::vector<T> yk(pw);
        const std::size_t lc0 = dist.local_col(k0);
        for (std::size_t r = 0; r < pw; ++r) {
          T acc = static_cast<T>(rhs[k0 + r]) - partial[r];
          for (std::size_t j = 0; j < r; ++j)
            acc -= ctx.local(lr0 + r, lc0 + j) * yk[j];
          yk[r] = acc;
        }
        for (std::size_t r = 0; r < pw; ++r) y[k0 + r] = yk[r];
      }
    }
    // Broadcast the solved block to everyone (pw doubles: stays tree-side
    // of any sane crossover, but routed through the dispatcher regardless).
    Payload block;
    if (comm.rank() == diag) {
      block.resize(pw);
      for (std::size_t r = 0; r < pw; ++r)
        block[r] = static_cast<double>(y[k0 + r]);
    }
    block = comm.bcast_auto(diag, everyone, std::move(block), tag + 1, pw);
    for (std::size_t r = 0; r < pw; ++r)
      y[k0 + r] = static_cast<T>(block[r]);
  }

  // --- Backward: U x = y (non-unit upper). Blocks in decreasing order. ---
  std::vector<T> x(n, T(0));
  const int back_base = solve_base + static_cast<int>(blocks) * 2 + 4;
  for (std::size_t kk = blocks; kk-- > 0;) {
    const std::size_t k0 = kk * nb;
    const std::size_t pw = std::min(nb, n - k0);
    const int pr = static_cast<int>(kk % grid.p);
    const int pc = static_cast<int>(kk % grid.q);
    const int diag = grid.rank_of(pr, pc);
    const int tag = back_base + static_cast<int>(kk) * 2;
    if (ctx.prow == pr) {
      std::vector<T> partial(pw, T(0));
      const std::size_t lr0 = dist.local_row(k0);
      const std::size_t lc_start = ctx.local_col_lower_bound(k0 + pw);
      for (std::size_t lc = lc_start; lc < ctx.lcols(); ++lc) {
        const std::size_t g = dist.global_col(ctx.pcol, lc);
        for (std::size_t r = 0; r < pw; ++r)
          partial[r] += ctx.local(lr0 + r, lc) * x[g];
      }
      if (comm.rank() != diag) {
        Payload out(pw);
        for (std::size_t r = 0; r < pw; ++r)
          out[r] = static_cast<double>(partial[r]);
        comm.send(diag, tag, std::move(out));
      } else {
        for (int pcol = 0; pcol < grid.q; ++pcol) {
          const int src = grid.rank_of(pr, pcol);
          if (src == diag) continue;
          const Payload other = comm.recv(src, tag);
          for (std::size_t r = 0; r < pw; ++r)
            partial[r] += static_cast<T>(other[r]);
        }
        std::vector<T> xk(pw);
        const std::size_t lc0 = dist.local_col(k0);
        for (std::size_t r = pw; r-- > 0;) {
          T acc = y[k0 + r] - partial[r];
          for (std::size_t j = r + 1; j < pw; ++j)
            acc -= ctx.local(lr0 + r, lc0 + j) * xk[j];
          xk[r] = acc / ctx.local(lr0 + r, lc0 + r);
        }
        for (std::size_t r = 0; r < pw; ++r) x[k0 + r] = xk[r];
      }
    }
    Payload block;
    if (comm.rank() == diag) {
      block.resize(pw);
      for (std::size_t r = 0; r < pw; ++r)
        block[r] = static_cast<double>(x[k0 + r]);
    }
    block = comm.bcast_auto(diag, everyone, std::move(block), tag + 1, pw);
    for (std::size_t r = 0; r < pw; ++r)
      x[k0 + r] = static_cast<T>(block[r]);
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(x[i]);
  return out;
}

/// Allreduced fp64 residual data for the solution x: the scaled HPL residual
/// (the gate value) and the residual vector r = b - A x, both computed from
/// per-rank regenerated entries of the ORIGINAL matrix — no gathered A.
/// Deterministic: the ring allreduce combines partial sums in a fixed order,
/// so every rank (and every clean/faulted rerun) gets identical doubles.
struct DistResidual {
  double scaled = 0;
  std::vector<double> r;
};

template <class T>
DistResidual distributed_residual(RankContext<T>& ctx,
                                  const std::vector<double>& x,
                                  const std::vector<double>& b,
                                  std::uint64_t seed, int tag) {
  const BlockCyclic& dist = *ctx.dist;
  const Grid& grid = dist.grid();
  const std::size_t n = dist.n();
  Payload acc(2 * n, 0.0);  // [0, n): partial A*x; [n, 2n): partial |A| row sums
  for (std::size_t lr = 0; lr < ctx.lrows(); ++lr) {
    const std::size_t gr = dist.global_row(ctx.prow, lr);
    for (std::size_t lc = 0; lc < ctx.lcols(); ++lc) {
      const std::size_t gc = dist.global_col(ctx.pcol, lc);
      const double a = util::hpl_entry(seed, gr, gc);
      acc[gr] += a * x[gc];
      acc[n + gr] += std::abs(a);
    }
  }
  std::vector<int> everyone(grid.ranks());
  for (int r = 0; r < grid.ranks(); ++r) everyone[r] = r;
  acc = ctx.comm->allreduce(everyone, std::move(acc), tag);
  DistResidual res;
  res.r.resize(n);
  blas::ResidualNorms norms;
  double a_inf = 0;
  for (std::size_t i = 0; i < n; ++i) {
    res.r[i] = b[i] - acc[i];
    norms.add(acc[i], x[i], b[i]);
    a_inf = std::max(a_inf, acc[n + i]);
  }
  res.scaled = norms.scaled(a_inf, n, std::numeric_limits<double>::epsilon());
  return res;
}

/// The recorded row interchanges applied, in order, to a replicated vector.
std::vector<double> permuted(std::vector<double> v,
                             const std::vector<double>& ipiv_all) {
  for (std::size_t i = 0; i < ipiv_all.size(); ++i) {
    const std::size_t piv = static_cast<std::size_t>(ipiv_all[i]);
    if (piv != i) std::swap(v[i], v[piv]);
  }
  return v;
}

/// The whole per-rank program: fill, factor, solve, (mixed: refine), check
/// the residual, write this rank's factors into result.factored. T = double
/// is the classic fp64 benchmark, bit-for-bit the pre-template behavior;
/// T = float is the mixed-precision path.
template <class T>
void rank_main(Comm& comm, const BlockCyclic& dist, const Grid& grid,
               const DistributedHplOptions& options, std::uint64_t seed,
               std::chrono::steady_clock::time_point epoch,
               std::vector<trace::Span>* spans, DistributedHplResult& result) {
  const std::size_t n = dist.n();
  RankContext<T> ctx;
  ctx.dist = &dist;
  ctx.comm = &comm;
  ctx.options = &options;
  ctx.prow = grid.prow_of(comm.rank());
  ctx.pcol = grid.pcol_of(comm.rank());
  ctx.epoch = epoch;
  ctx.spans = spans;
  ctx.local = Matrix<T>(ctx.lrows(), ctx.lcols());
  // Fill from the position-stable generator: each rank produces exactly
  // the entries it owns (demoted to T — this cast IS the fp32 demotion
  // under Precision::kMixed).
  for (std::size_t lr = 0; lr < ctx.lrows(); ++lr)
    for (std::size_t lc = 0; lc < ctx.lcols(); ++lc)
      ctx.local(lr, lc) = static_cast<T>(
          util::hpl_entry(seed, dist.global_row(ctx.prow, lr),
                          dist.global_col(ctx.pcol, lc)));

  std::vector<double> ipiv_all;
  const bool lookahead = options.lookahead != Lookahead::kNone;
  Payload packet = finish_panel(ctx, start_panel(ctx, 0));
  for (std::size_t bk = 0; bk < dist.num_blocks(); ++bk)
    packet = run_stage(ctx, bk, std::move(packet), ipiv_all, lookahead);

  // Distributed solve: permute the replicated right-hand side by the
  // recorded interchanges, then block forward/back substitution.
  std::vector<double> b(n);
  util::Rng brng(seed ^ 0xb0b);
  for (auto& v : b) v = brng.next_centered();
  const int solve_base = static_cast<int>(dist.num_blocks() + 1) * kTagStride;
  std::vector<double> x_dist =
      distributed_solve(ctx, permuted(b, ipiv_all), solve_base);

  // The run's one residual check, over the distributed data (every rank
  // participates and agrees). Under kMixed the same evaluation drives the
  // refinement schedule: evaluate, stop when the (unrelaxed) gate passes,
  // otherwise permute r, solve the correction through the fp32 factors in a
  // fresh tag window, repeat.
  const int residual_tag =
      static_cast<int>(dist.num_blocks() + 1) * kTagStride +
      static_cast<int>(dist.num_blocks()) * 4 + 8;
  double residual = 0;
  int refine_iters = 0;
  std::vector<double> refine_trace;
  if constexpr (std::is_same_v<T, double>) {
    residual = distributed_residual(ctx, x_dist, b, seed, residual_tag).scaled;
  } else {
    const int iter_stride = static_cast<int>(dist.num_blocks()) * 4 + 16;
    const int max_iters = std::max(0, options.refine_max_iters);
    for (int it = 0;; ++it) {
      const int eval_tag = residual_tag + it * iter_stride;
      DistResidual rd = distributed_residual(ctx, x_dist, b, seed, eval_tag);
      refine_trace.push_back(rd.scaled);
      residual = rd.scaled;
      if (rd.scaled < blas::kHplResidualThreshold) break;
      if (it >= max_iters) break;  // cap hit: the gate fails below
      const std::vector<double> d = distributed_solve(
          ctx, permuted(std::move(rd.r), ipiv_all), eval_tag + 4);
      for (std::size_t i = 0; i < n; ++i) x_dist[i] += d[i];
      ++refine_iters;
    }
  }

  // This rank's factors, widened, at their global positions (the tests'
  // view of them; nothing above reads them), one local column block — nb
  // contiguous global columns — at a time. Ranks write disjoint elements
  // of the preallocated matrix, and World::run's join orders every write
  // before the caller reads it.
  for (std::size_t lr = 0; lr < ctx.lrows(); ++lr) {
    double* out = result.factored.view().row(dist.global_row(ctx.prow, lr));
    for (std::size_t lc0 = 0; lc0 < ctx.lcols(); lc0 += dist.nb()) {
      double* dst = out + dist.global_col(ctx.pcol, lc0);
      const std::size_t w = std::min(dist.nb(), ctx.lcols() - lc0);
      for (std::size_t c = 0; c < w; ++c)
        dst[c] = static_cast<double>(ctx.local(lr, lc0 + c));
    }
  }
  if (comm.rank() != 0) return;

  std::vector<std::size_t> ipiv(n);
  for (std::size_t i = 0; i < n && i < ipiv_all.size(); ++i)
    ipiv[i] = static_cast<std::size_t>(ipiv_all[i]);

  result.ipiv = std::move(ipiv);
  result.x = std::move(x_dist);
  result.residual = residual;
  result.refine_iterations = refine_iters;
  result.refine_trace = std::move(refine_trace);
  result.ok = residual < blas::kHplResidualThreshold;
}

}  // namespace

DistributedHplResult run_distributed_hpl(std::size_t n, std::size_t nb,
                                         Grid grid, std::uint64_t seed,
                                         const DistributedHplOptions& options) {
  DistributedHplResult result;
  result.factored = Matrix<double>(n, n);
  BlockCyclic dist(n, nb, grid);
  net::World world(grid.ranks());
  world.set_recv_timeout(kRecvTimeoutSeconds);
  world.set_fault_injector(options.injector);
  if (options.net_workers != 0) world.set_workers(options.net_workers);

  // Per-rank span capture slots (each written only by its own rank thread;
  // merged into options.timeline after the world joins).
  std::vector<std::vector<trace::Span>> rank_spans(grid.ranks());
  const auto epoch = std::chrono::steady_clock::now();

  world.run([&](Comm& comm) {
    std::vector<trace::Span>* spans =
        options.timeline != nullptr ? &rank_spans[comm.rank()] : nullptr;
    if (options.precision == Precision::kMixed)
      rank_main<float>(comm, dist, grid, options, seed, epoch, spans, result);
    else
      rank_main<double>(comm, dist, grid, options, seed, epoch, spans, result);
  });

  result.comm_stats.reserve(grid.ranks());
  for (int r = 0; r < grid.ranks(); ++r)
    result.comm_stats.push_back(world.stats(r));
  if (options.timeline != nullptr)
    for (const auto& spans : rank_spans)
      for (const trace::Span& s : spans)
        options.timeline->record(s.lane, s.kind, s.t0, s.t1);
  return result;
}

}  // namespace xphi::hpl
