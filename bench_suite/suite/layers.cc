#include "suite/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "blas/getrf.h"
#include "blas/microkernel/registry.h"
#include "blas/residual.h"
#include "core/hybrid_functional.h"
#include "core/offload_functional.h"
#include "hpcc/stream.h"
#include "hpl/distributed.h"
#include "hpl/mixed.h"
#include "lu/functional.h"
#include "net/world.h"
#include "serve/job.h"
#include "serve/server.h"
#include "trace/timeline.h"
#include "util/flops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::bench {

namespace {

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

template <class T>
void copy_matrix(const util::Matrix<T>& from, util::Matrix<T>& to) {
  std::memcpy(to.data(), from.data(), sizeof(T) * from.rows() * from.ld());
}

// ---------------------------------------------------------------- blas --

/// Seconds per public call of one factorization (the spans of the traced
/// stage loop).
struct StageSpans {
  double panel = 0, laswp = 0, trsm = 0, gemm = 0;
  double gemm_flops = 0;
};

/// The calls blas::getrf_blocked makes, in its order and with its options,
/// each timed as a span. The bench checks that the result is bitwise equal
/// to getrf_blocked's, so this loop cannot drift from the driver unseen.
template <class T>
bool traced_getrf(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                  std::size_t nb, util::ThreadPool* pool, StageSpans& sp) {
  const std::size_t n = a.rows();
  blas::PanelOptions panel;
  panel.pool = pool;
  for (std::size_t i = 0; i < n; i += nb) {
    const std::size_t jb = std::min(nb, n - i);
    auto t = Clock::now();
    const bool ok = blas::getrf_panel<T>(a.block(i, i, n - i, jb),
                                         ipiv.subspan(i, jb), panel);
    if (ok)
      for (std::size_t j = 0; j < jb; ++j) ipiv[i + j] += i;
    sp.panel += since(t);
    if (!ok) return false;

    t = Clock::now();
    const blas::SwapPlan plan = blas::make_swap_plan(
        std::span<const std::size_t>(ipiv.data(), n), i, i + jb);
    if (i > 0)
      blas::laswp_fused<T>(a.block(0, 0, n, i), plan, pool,
                           panel.laswp_col_chunk);
    if (i + jb < n)
      blas::laswp_fused<T>(a.block(0, i + jb, n, n - i - jb), plan, pool,
                           panel.laswp_col_chunk);
    sp.laswp += since(t);
    if (i + jb == n) continue;

    const std::size_t rest = n - i - jb;
    auto u12 = a.block(i, i + jb, jb, rest);
    t = Clock::now();
    blas::trsm_left_lower_unit<T>(a.block(i, i, jb, jb), u12, pool);
    sp.trsm += since(t);

    blas::GemmOptions go;
    go.chunk_k = jb;
    go.kernel = panel.microkernel;
    go.pool = pool;
    t = Clock::now();
    blas::gemm_tiled<T>(T{-1}, a.block(i + jb, i, rest, jb), u12, T{1},
                        a.block(i + jb, i + jb, rest, rest), go);
    sp.gemm += since(t);
    sp.gemm_flops += util::gemm_flops(rest, rest, jb);
  }
  return true;
}

/// GF/s of the registry-dispatched full-tile kernel on packed tiles that
/// stay in L1, on one thread.
template <class T>
double microkernel_gflops(std::size_t target_calls) {
  const auto sel = blas::mk::select_kernel<T>(0);
  if (!sel) return 0;
  const std::size_t rows = sel.tile_rows(), cols = sel.nr(), k = 128;
  std::vector<T> a(rows * k), b(k * cols), c(rows * cols);
  util::Rng rng(7);
  for (T& v : a) v = static_cast<T>(rng.next_centered());
  for (T& v : b) v = static_cast<T>(rng.next_centered());
  std::vector<double> rates;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (std::size_t call = 0; call < target_calls; ++call)
      sel.fns.full(a.data(), b.data(), k, T{1}, T{1}, c.data(), cols);
    rates.push_back(util::gemm_flops(rows, cols, k) * target_calls /
                    since(t0) * 1e-9);
  }
  return median(rates);
}

void blas_layers(RunRecord& rec, const Sizes& s, std::uint64_t seed,
                 bool smoke, const HostInfo& host, double triad_gbs) {
  const std::size_t n = s.lu_n, nb = s.nb;
  util::Matrix<double> a0(n, n);
  util::fill_hpl_matrix(a0.view(), seed);
  const std::vector<double> b = hpl_rhs(n, seed);

  auto pool = std::make_unique<util::ThreadPool>(3);
  util::Matrix<double> ref(n, n), a(n, n);
  std::vector<std::size_t> ref_piv(n), piv(n);
  std::vector<double> ref_x, x;

  // Untraced getrf_blocked + solve interleaved with the traced stage loop,
  // three of each; medians of both.
  std::vector<double> untraced, traced, panel, laswp, trsm, gemm, solve,
      cover;
  double gemm_flops = 0;
  bool bitwise = true;
  for (int rep = 0; rep < 3; ++rep) {
    copy_matrix(a0, ref);
    ref_x = b;
    auto t0 = Clock::now();
    const bool ok_ref =
        blas::getrf_blocked<double>(ref.view(), ref_piv, nb, pool.get());
    if (ok_ref) blas::lu_solve_vector<double>(ref.view(), ref_piv, ref_x);
    untraced.push_back(since(t0));
    rec.check(ok_ref, "getrf_blocked hit a zero pivot");

    copy_matrix(a0, a);
    x = b;
    StageSpans sp;
    t0 = Clock::now();
    const bool ok = traced_getrf<double>(a.view(), piv, nb, pool.get(), sp);
    const auto ts = Clock::now();
    if (ok) blas::lu_solve_vector<double>(a.view(), piv, x);
    const double solve_s = since(ts);
    const double wall = since(t0);
    rec.check(ok, "traced stage loop hit a zero pivot");
    traced.push_back(wall);
    panel.push_back(sp.panel);
    laswp.push_back(sp.laswp);
    trsm.push_back(sp.trsm);
    gemm.push_back(sp.gemm);
    solve.push_back(solve_s);
    cover.push_back((sp.panel + sp.laswp + sp.trsm + sp.gemm + solve_s) /
                    wall);
    gemm_flops = sp.gemm_flops;
    bitwise = bitwise && piv == ref_piv &&
              std::memcmp(a.data(), ref.data(), sizeof(double) * n * n) ==
                  0 &&
              std::memcmp(x.data(), ref_x.data(), sizeof(double) * n) == 0;
  }
  rec.check(bitwise,
            "traced stage loop's pivots or factors differ from getrf_blocked");
  rec.check(blas::hpl_residual<double>(a0.view(), x, b) <
                blas::kHplResidualThreshold,
            "blocked LU missed the residual gate");
  rec.check(median(cover) >= 0.90, "blas spans cover under 90% of wall");
  const double gemm_gflops = gemm_flops / median(gemm) * 1e-9;
  rec.add("blas.panel.s", "s", panel);
  rec.add("blas.laswp.s", "s", laswp);
  rec.add("blas.trsm.s", "s", trsm);
  rec.add("blas.gemm.s", "s", gemm);
  rec.add("blas.solve.s", "s", solve);
  rec.add("blas.gemm.gflops", "GF/s", {gemm_gflops});
  rec.add("blas.gemm.peak_frac", "fraction",
          {gemm_gflops / host.peak_gflops()});
  rec.add("blas.span_cover_frac", "fraction", cover);
  rec.add("blas.trace_overhead_frac", "fraction",
          {median(traced) / median(untraced) - 1});

  // The same stage loop in fp32 on the demoted matrix.
  {
    util::Matrix<float> a32(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        a32(r, c) = static_cast<float>(a0(r, c));
    StageSpans sp;
    rec.check(traced_getrf<float>(a32.view(), piv, nb, pool.get(), sp),
              "fp32 stage loop hit a zero pivot");
    rec.add("blas.f32.panel.s", "s", {sp.panel});
    rec.add("blas.f32.gemm.s", "s", {sp.gemm});
  }

  // Square gemm_tiled at the ROADMAP gate shape, on the pool.
  {
    const std::size_t g = s.gemm_n;
    util::Matrix<double> ga(g, g), gb(g, g), gc(g, g);
    util::fill_hpl_matrix(ga.view(), seed + 1);
    util::fill_hpl_matrix(gb.view(), seed + 2);
    blas::GemmOptions go;
    go.pool = pool.get();
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      blas::gemm_tiled<double>(1.0, ga.view(), gb.view(), 0.0, gc.view(), go);
      rates.push_back(util::gemm_flops(g, g, g) / since(t0) * 1e-9);
    }
    rec.add("blas.gemm1024.gflops", "GF/s", rates);
  }

  const std::size_t calls = smoke ? 1000 : 100000;
  const double mk = microkernel_gflops<double>(calls);
  rec.add("blas.microkernel.gflops", "GF/s", {mk});
  rec.add("blas.microkernel.peak_frac", "fraction",
          {mk / host.core_peak_gflops()});
  rec.add("blas.microkernel.f32_gflops", "GF/s",
          {microkernel_gflops<float>(calls)});

  // hpl.mixed: the stage split solve_mixed reports.
  {
    hpl::MixedOptions mo;
    mo.nb = nb;
    mo.pool = pool.get();
    const hpl::MixedSolveResult res = hpl::solve_mixed(a0.view(), b, mo);
    rec.check(res.ok, "mixed solve missed the residual gate");
    // Computed bytes: the initial solve reads the fp32 factors once; each
    // correction reads A in fp64 for the residual and the factors again.
    const double nn = static_cast<double>(n) * static_cast<double>(n);
    const double bytes = nn * 4 + res.iterations * nn * (8 + 4);
    rec.add("hpl.mixed.factor_s", "s", {res.factor_seconds});
    rec.add("hpl.mixed.refine_s", "s", {res.refine_seconds});
    rec.add("hpl.mixed.refine_iters", "count",
            {static_cast<double>(res.iterations)});
    rec.add("hpl.mixed.refine_bw_frac", "fraction",
            {bytes / res.refine_seconds * 1e-9 / triad_gbs});
  }

  // lu: the DAG executor on four workers of its own, so the pool goes.
  pool.reset();
  {
    copy_matrix(a0, a);
    x = b;
    lu::DagLuPackStats pack;
    double panel_s = 0;
    const auto t0 = Clock::now();
    const bool ok =
        lu::dag_lu_factor(a.view(), piv, nb, 4, &pack, {}, &panel_s);
    if (ok) blas::lu_solve_vector<double>(a.view(), piv, x);
    const double wall = since(t0);
    rec.check(ok && piv == ref_piv &&
                  std::memcmp(a.data(), ref.data(), sizeof(double) * n * n) ==
                      0,
              "DAG LU factors differ from getrf_blocked");
    rec.add("lu.dag.gflops", "GF/s", {util::linpack_flops(n) / wall * 1e-9});
    rec.add("lu.dag.panel_s", "s", {panel_s});
    rec.add("lu.dag.pack_hit_ratio", "fraction",
            {static_cast<double>(pack.pack_hits) /
             static_cast<double>(pack.pack_hits + pack.pack_misses)});
  }
}

// ---------------------------------------------------------- util, hpcc --

void pool_layer(RunRecord& rec) {
  util::ThreadPool pool(3);
  std::size_t hits[4] = {0, 0, 0, 0};
  constexpr int kCalls = 2000;
  std::vector<double> us;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (int c = 0; c < kCalls; ++c)
      pool.parallel_for(4, [&](std::size_t i) { ++hits[i]; });
    us.push_back(since(t0) / kCalls * 1e6);
  }
  rec.check(hits[0] == hits[3] && hits[0] == 5u * kCalls,
            "parallel_for skipped or repeated a task");
  rec.add("util.pool.dispatch_us", "us", us);
}

double stream_layer(RunRecord& rec, const HostInfo& host, bool smoke) {
  // At least 4x the last-level cache per array, capped at 128 MiB so three
  // arrays stay small next to other tenants of the machine; both sizes are
  // printed so a capped run is visible.
  constexpr std::size_t kCap = std::size_t{128} << 20;
  const std::size_t want = std::max<std::size_t>(host.llc_bytes * 4, 1 << 20);
  const std::size_t bytes = smoke ? std::size_t{1} << 20 : std::min(want, kCap);
  util::ThreadPool pool(3);
  hpcc::StreamOptions so;
  so.elements = bytes / sizeof(double);
  so.reps = 3;
  so.pool = &pool;
  const hpcc::StreamResult res = hpcc::run_stream(so);
  std::printf("hpcc.stream: %.1f MiB per array, last-level cache %.1f MiB%s\n",
              bytes / 1048576.0, host.llc_bytes / 1048576.0,
              bytes < want ? " (array capped below 4x LLC)" : "");
  rec.check(res.ok, "STREAM closed-form check failed");
  rec.add("hpcc.stream.triad_gbs", "GB/s", {res.triad_gbs});
  return res.triad_gbs;
}

// ----------------------------------------------------------------- net --

void net_probes(RunRecord& rec, bool smoke) {
  const int rounds = smoke ? 100 : 2000;
  double pingpong_s = 0;
  {
    net::World w(2);
    w.set_workers(2);
    w.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        const auto t0 = Clock::now();
        for (int r = 0; r < rounds; ++r) {
          comm.send(1, 1, net::Payload{1.0});
          comm.recv(1, 1);
        }
        pingpong_s = since(t0);
      } else {
        for (int r = 0; r < rounds; ++r) comm.send(0, 1, comm.recv(0, 1));
      }
    });
  }
  rec.add("net.pingpong_us", "us", {pingpong_s / rounds / 2 * 1e6});

  constexpr std::size_t kMsgDoubles = std::size_t{1} << 17;  // 1 MiB
  const int msgs = smoke ? 4 : 32;
  double bw_s = 0;
  bool intact = true;
  {
    net::World w(2);
    w.set_workers(2);
    w.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<net::Payload> out(msgs, net::Payload(kMsgDoubles, 1.0));
        const auto t0 = Clock::now();
        for (auto& p : out) comm.send(1, 2, std::move(p));
        comm.recv(1, 3);
        bw_s = since(t0);
      } else {
        for (int m = 0; m < msgs; ++m)
          intact = comm.recv(0, 2).size() == kMsgDoubles && intact;
        comm.send(0, 3, net::Payload{});
      }
    });
  }
  rec.check(intact, "1 MiB message arrived truncated");
  rec.add("net.bw_gbs", "GB/s",
          {msgs * kMsgDoubles * sizeof(double) / bw_s * 1e-9});

  std::vector<double> run_us;
  for (int i = 0; i < (smoke ? 5 : 50); ++i) {
    const auto t0 = Clock::now();
    net::World w(4);
    w.run([](net::Comm&) {});
    run_us.push_back(since(t0) * 1e6);
  }
  rec.add("net.world_run_us", "us", run_us);
}

// ------------------------------------------------------------ hpl.grid --

double grid_gflops(RunRecord& rec, const Sizes& s, std::uint64_t seed,
                   hpl::Lookahead la, int reps) {
  hpl::DistributedHplOptions opt = grid_options(hpl::Precision::kFp64);
  opt.lookahead = la;
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const auto res =
        hpl::run_distributed_hpl(s.grid_n, s.nb, hpl::Grid{2, 2}, seed, opt);
    rates.push_back(util::linpack_flops(s.grid_n) / since(t0) * 1e-9);
    rec.check(res.ok, "distributed solve missed the residual gate");
  }
  return median(rates);
}

void grid_layers(RunRecord& rec, const Sizes& s, std::uint64_t seed) {
  trace::Timeline tl;
  hpl::DistributedHplOptions opt = grid_options(hpl::Precision::kFp64);
  opt.timeline = &tl;
  const auto t0 = Clock::now();
  const auto res =
      hpl::run_distributed_hpl(s.grid_n, s.nb, hpl::Grid{2, 2}, seed, opt);
  const double wall = since(t0);
  rec.check(res.ok, "distributed solve missed the residual gate");

  double messages = 0, bytes = 0, wait = 0, high_water = 0, tree = 0;
  for (const net::CommStats& st : res.comm_stats) {
    messages += static_cast<double>(st.messages_sent);
    bytes += static_cast<double>(st.bytes_sent);
    wait += st.wait_seconds;
    high_water = std::max(high_water,
                          static_cast<double>(st.mailbox_high_water));
    tree += static_cast<double>(st.tree_collectives);
  }
  const double ranks = static_cast<double>(res.comm_stats.size());
  rec.add("net.messages", "count", {messages});
  rec.add("net.bytes", "bytes", {bytes});
  rec.add("net.wait_s", "s", {wait});
  rec.add("net.wait_frac", "fraction", {wait / (ranks * wall)});
  rec.add("net.mailbox_high_water", "count", {high_water});
  rec.add("net.tree_collectives", "count", {tree});

  const auto busy = tl.busy_by_kind();
  const auto kind = [&](trace::SpanKind k) {
    const auto it = busy.find(k);
    return it == busy.end() ? 0.0 : it->second;
  };
  double spans = 0;
  for (const auto& [k, v] : busy) spans += v;
  rec.add("hpl.grid.panel_s", "s", {kind(trace::SpanKind::kPanelFactor)});
  rec.add("hpl.grid.rowswap_s", "s", {kind(trace::SpanKind::kRowSwap)});
  rec.add("hpl.grid.trsm_s", "s", {kind(trace::SpanKind::kTrsm)});
  rec.add("hpl.grid.gemm_s", "s", {kind(trace::SpanKind::kGemm)});
  rec.add("hpl.grid.bcast_s", "s", {kind(trace::SpanKind::kBroadcast)});
  rec.add("hpl.grid.bcast_gemm_overlap_s", "s",
          {trace::cross_lane_overlap(tl, trace::SpanKind::kBroadcast,
                                     trace::SpanKind::kGemm)});
  rec.add("hpl.grid.span_cover_frac", "fraction", {spans / (ranks * wall)});

  rec.add("hpl.grid.none_gflops", "GF/s",
          {grid_gflops(rec, s, seed, hpl::Lookahead::kNone, 3)});
  rec.add("hpl.grid.basic_gflops", "GF/s",
          {grid_gflops(rec, s, seed, hpl::Lookahead::kBasic, 3)});

  const auto mres =
      hpl::run_distributed_hpl(s.grid_n, s.nb, hpl::Grid{2, 2}, seed,
                               grid_options(hpl::Precision::kMixed));
  rec.check(mres.ok, "distributed mixed solve missed the residual gate");
  rec.add("hpl.grid.mixed_refine_iters", "count",
          {static_cast<double>(mres.refine_iterations)});
}

// ---------------------------------------------------------------- core --

void core_layers(RunRecord& rec, const Sizes& s, std::uint64_t seed) {
  core::FunctionalOffloadConfig cfg;
  cfg.cards = 1;
  cfg.host_steals = false;

  // Per-call overhead: one 64x64x64 tile through the engine against the
  // serial gemm_tiled of the same shape.
  {
    constexpr std::size_t t = 64;
    util::Matrix<double> a(t, t), b(t, t), c(t, t), c_ref(t, t);
    util::fill_hpl_matrix(a.view(), seed + 3);
    util::fill_hpl_matrix(b.view(), seed + 4);
    std::vector<double> offload_us, gemm_us;
    for (int rep = 0; rep < 30; ++rep) {
      c.fill(0);
      c_ref.fill(0);
      auto t0 = Clock::now();
      core::offload_gemm_functional(-1.0, a.view(), b.view(), c.view(), cfg);
      offload_us.push_back(since(t0) * 1e6);
      t0 = Clock::now();
      blas::gemm_tiled<double>(-1.0, a.view(), b.view(), 1.0, c_ref.view());
      gemm_us.push_back(since(t0) * 1e6);
    }
    rec.check(util::max_abs_diff<double>(c.view(), c_ref.view()) < 1e-12,
              "offload tile result differs from gemm_tiled");
    rec.add("core.offload.call_overhead_us", "us",
            {median(offload_us) - median(gemm_us)});
  }

  // Throughput and pack reuse on one trailing-update-shaped call.
  {
    const std::size_t m = std::min<std::size_t>(1024, s.hybrid_n), k = 64;
    util::Matrix<double> a(m, k), b(k, m), c(m, m);
    util::fill_hpl_matrix(a.view(), seed + 5);
    util::fill_hpl_matrix(b.view(), seed + 6);
    c.fill(0);
    std::vector<double> rates;
    core::FunctionalOffloadStats st;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      st = core::offload_gemm_functional(-1.0, a.view(), b.view(), c.view(),
                                         cfg);
      rates.push_back(util::gemm_flops(m, m, k) / since(t0) * 1e-9);
    }
    rec.check(st.tiles_cards + st.tiles_host == st.tiles_total,
              "offload engine lost a tile");
    rec.add("core.offload.gflops", "GF/s", rates);
    rec.add("core.offload.pack_hit_ratio", "fraction",
            {static_cast<double>(st.pack_hits) /
             static_cast<double>(st.pack_hits + st.pack_misses)});
  }

  core::HybridFunctionalConfig hc;
  hc.n = s.hybrid_n;
  hc.nb = s.nb;
  hc.scheme = core::FunctionalScheme::kBasic;
  hc.offload = cfg;
  const auto res = core::run_functional_hybrid_hpl(hc, seed);
  rec.check(res.ok, "hybrid solve missed the residual gate");
  rec.add("core.hybrid.lookahead_panels", "count",
          {static_cast<double>(res.lookahead_panels)});
}

// --------------------------------------------------------------- serve --

void serve_layers(RunRecord& rec, const Sizes& s, std::uint64_t seed) {
  const auto trace = serve::generate_trace(serve_traffic(s, seed));
  const serve::ServeReport report = serve::run_server(trace, serve_config());
  rec.check(report.rejected == 0 && report.completed == trace.size(),
            "serve rejected or dropped a job");

  std::vector<double> hit_s, miss_s;
  for (const serve::JobOutcome& j : report.jobs) {
    if (j.rejected) continue;
    (j.cache_hit ? hit_s : miss_s).push_back(j.wall_service_s);
  }
  double messages = 0, wait = 0;
  for (const net::CommStats& st : report.comm) {
    messages += static_cast<double>(st.messages_sent);
    wait += st.wait_seconds;
  }
  const double completed = static_cast<double>(report.completed);
  rec.add("serve.cache_hit_ratio", "fraction",
          {static_cast<double>(hit_s.size()) / completed});
  rec.add("serve.jobs_per_batch", "count",
          {completed / static_cast<double>(report.batches)});
  rec.add("serve.hit_service_ms_p50", "ms",
          {serve::percentile(hit_s, 0.5) * 1e3});
  rec.add("serve.miss_service_ms_p50", "ms",
          {serve::percentile(miss_s, 0.5) * 1e3});
  rec.add("serve.p99_service_ms", "ms", {report.p99_wall_service_s * 1e3});
  rec.add("serve.net.messages", "count", {messages});
  rec.add("serve.net.wait_s", "s", {wait});
}

}  // namespace

RunRecord run_layers(const RunArgs& args, const Sizes& sizes,
                     const HostInfo& host) {
  RunRecord rec;
  rec.workload = args.workload;
  rec.traced = true;
  rec.reps = 1;
  const auto t0 = Clock::now();
  const double triad = stream_layer(rec, host, args.smoke);
  blas_layers(rec, sizes, args.seed, args.smoke, host, triad);
  pool_layer(rec);
  net_probes(rec, args.smoke);
  grid_layers(rec, sizes, args.seed);
  core_layers(rec, sizes, args.seed);
  serve_layers(rec, sizes, args.seed);
  rec.measured_s = since(t0);
  return rec;
}

}  // namespace xphi::bench
