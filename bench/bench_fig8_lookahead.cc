// Figure 8 companion: the look-ahead of the distributed HPL, run
// *functionally* over net::World ranks (threads + messages) instead of
// simulated — kNone (next panel after the whole update, Fig 8a) and kBasic
// (next panel hidden under the trailing update, Fig 8b): one rank stage,
// with and without look-ahead. The pipelined scheme of Fig 8c is the
// simulator's (core::Lookahead::kPipelined, bench_fig9_pipeline_profile).
//
// For each scheme the bench reports wall time, effective GF/s, the
// cross-lane broadcast x GEMM overlap (the "communication hidden under
// compute" the look-ahead exists for), aggregate message/byte counts and
// blocked-wait seconds from the per-rank CommStats, and verifies the HPL
// residual. Records land in BENCH_hpl.json next to the binary (committed
// copy under results/) as the cross-PR trend artifact for the distributed
// path.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "hpl/distributed.h"
#include "json_out.h"
#include "trace/timeline.h"
#include "util/flops.h"

namespace {

const char* scheme_name(xphi::hpl::Lookahead s) {
  return s == xphi::hpl::Lookahead::kNone ? "none" : "basic";
}

/// LU factor + solve flops for order n (2/3 n^3 + lower-order terms).
double hpl_flops(std::size_t n) {
  const double nd = static_cast<double>(n);
  return 2.0 / 3.0 * nd * nd * nd + 2.0 * nd * nd;
}

}  // namespace

int main() {
  using namespace xphi;
  const std::size_t n = 768, nb = 48;
  const hpl::Grid grid{2, 2};
  const std::uint64_t seed = 42;
  const int reps = 7;

  std::printf(
      "Figure 8 (functional): look-ahead schemes of the distributed HPL\n"
      "n=%zu nb=%zu grid=%dx%d, %d reps (best)\n\n",
      n, nb, grid.p, grid.q, reps);
  std::printf("%-10s %9s %8s %11s %10s %12s %9s\n", "scheme", "time[s]",
              "GF/s", "overlap[s]", "messages", "bytes", "wait[s]");

  // Reps are interleaved round-robin across the schemes (rep 0 of every
  // scheme, then rep 1, ...) so slow drift in background load hits both
  // equally instead of biasing whichever scheme happens to run last.
  const std::vector<hpl::Lookahead> schemes = {hpl::Lookahead::kNone,
                                               hpl::Lookahead::kBasic};
  std::vector<double> best(schemes.size(), -1);
  std::vector<hpl::DistributedHplResult> results(schemes.size());
  std::vector<trace::Timeline> timelines(schemes.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      trace::Timeline run_tl;
      hpl::DistributedHplOptions opt;
      opt.lookahead = schemes[i];
      opt.timeline = &run_tl;
      const auto t0 = std::chrono::steady_clock::now();
      auto out = hpl::run_distributed_hpl(n, nb, grid, seed, opt);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (best[i] < 0 || s < best[i]) {
        best[i] = s;
        results[i] = std::move(out);
        timelines[i] = std::move(run_tl);
      }
    }
  }

  std::vector<bench::JsonRecord> records;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto scheme = schemes[i];
    const hpl::DistributedHplResult& res = results[i];
    const trace::Timeline& tl = timelines[i];
    if (!res.ok) {
      std::fprintf(stderr, "FAIL: %s residual %.3f over threshold\n",
                   scheme_name(scheme), res.residual);
      return 1;
    }
    const double overlap = trace::cross_lane_overlap(
        tl, trace::SpanKind::kBroadcast, trace::SpanKind::kGemm);
    double messages = 0, bytes = 0, wait = 0;
    for (const auto& st : res.comm_stats) {
      messages += static_cast<double>(st.messages_sent);
      bytes += static_cast<double>(st.bytes_sent);
      wait += st.wait_seconds;
    }
    const double gflops = hpl_flops(n) / best[i] / 1e9;
    std::printf("%-10s %9.4f %8.2f %11.4f %10.0f %12.0f %9.4f\n",
                scheme_name(scheme), best[i], gflops, overlap, messages, bytes,
                wait);
    records.push_back(bench::JsonRecord{}
                          .str("scheme", scheme_name(scheme))
                          .num("n", static_cast<double>(n))
                          .num("nb", static_cast<double>(nb))
                          .num("grid_p", grid.p)
                          .num("grid_q", grid.q)
                          .num("seconds", best[i])
                          .num("gflops", gflops)
                          .num("bcast_gemm_overlap_s", overlap)
                          .num("messages", messages)
                          .num("bytes", bytes)
                          .num("wait_s", wait)
                          .num("residual", res.residual));
  }
  std::printf(
      "\nresidual checks passed; overlap[s] is cross-lane broadcast x DGEMM "
      "time\n");
  if (!bench::write_json("BENCH_hpl.json", "hpl_lookahead", records))
    std::fprintf(stderr, "warning: could not write BENCH_hpl.json\n");
  return 0;
}
