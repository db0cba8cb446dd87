#include "core/hybrid_hpl.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/flops.h"

namespace xphi::core {

namespace {

// While the card streams tiles over PCIe, host swapping contends with DMA
// and packing for DRAM bandwidth (paper: "swapping, constrained by both DRAM
// and interconnect bandwidth, exposes a larger fraction of Knights Corner's
// idle time"). Effective swap bandwidth fraction of host STREAM:
constexpr double kHybridSwapBwFraction = 0.08;

double ceil_div(std::size_t a, std::size_t b) {
  return static_cast<double>((a + b - 1) / b);
}

}  // namespace

HybridHplResult simulate_hybrid_hpl(const HybridHplConfig& cfg,
                                    const sim::KncGemmModel& knc,
                                    const sim::SnbModel& snb,
                                    const sim::SnbLuModel& snb_lu,
                                    const pci::PcieLink& link,
                                    const net::CostModel& net) {
  HybridHplResult res;
  const int nodes = cfg.p * cfg.q;
  assert(nodes >= 1);
  res.peak_gflops =
      nodes * (snb.spec().peak_gflops() + cfg.cards * knc.spec().peak_gflops());
  res.fits_memory = static_cast<double>(cfg.n) * cfg.n * 8.0 <=
                    static_cast<double>(nodes) * cfg.host_mem_gib *
                        1024.0 * 1024.0 * 1024.0;

  const std::size_t n = cfg.n;
  const std::size_t nb = cfg.nb;

  double total = 0;
  double exposed_total = 0;

  for (std::size_t i0 = 0; i0 < n; i0 += nb) {
    const std::size_t i = i0 / nb;
    const std::size_t rows = n - i0;
    const std::size_t pw = std::min(nb, rows);
    const std::size_t width = rows - pw;
    // Block-cyclic distribution: the most loaded rank owns whole nb-blocks,
    // so local extents quantize to nb (the grid-imbalance the paper's 4%
    // multi-node degradation includes).
    const std::size_t local_panel_rows =
        static_cast<std::size_t>(ceil_div(rows, cfg.p));
    const std::size_t local_rows = std::min<std::size_t>(
        width, static_cast<std::size_t>(ceil_div(width, nb * cfg.p)) * nb);
    const std::size_t local_cols = std::min<std::size_t>(
        width, static_cast<std::size_t>(ceil_div(width, nb * cfg.q)) * nb);

    // Host-side kernel times (per the representative, most-loaded rank).
    const double t_panel =
        snb_lu.panel_seconds(local_panel_rows, pw, cfg.host_panel_cores) +
        net.bcast_seconds(8.0 * local_panel_rows * pw, cfg.q);
    double t_swap = 0, t_dtrsm = 0, t_ubcast = 0, t_update = 0;
    if (width > 0) {
      const double swap_bytes = 2.0 * 2.0 * 8.0 * pw * local_cols;
      const double swap_bw =
          (cfg.cards > 0 ? kHybridSwapBwFraction
                         : snb_lu.params().swap_bw_fraction) *
          snb_lu.spec().stream_bw_gbs * 1e9;
      t_swap = swap_bytes / swap_bw +
               net.swap_exchange_seconds(2.0 * 8.0 * pw * local_cols, cfg.p);
      t_dtrsm = snb_lu.trsm_seconds(pw, local_cols,
                                    snb_lu.spec().total_cores());
      t_ubcast = net.bcast_seconds(8.0 * pw * local_cols, cfg.p);
      if (cfg.cards > 0) {
        OffloadDgemmConfig od;
        od.m = local_rows;
        od.n = local_cols;
        od.kt = pw;
        od.cards = cfg.cards;
        od.host_steals = true;
        od.host_compute_cores = cfg.host_steal_cores;
        t_update = simulate_offload_dgemm(od, knc, snb, link).seconds;
      } else {
        t_update = snb.dgemm_seconds(local_rows, local_cols, pw,
                                     snb.spec().total_cores());
      }
    }

    IterationProfile prof;
    prof.iter = i;
    prof.width = width;
    prof.update_seconds = t_update;
    double t_iter = 0;
    switch (cfg.scheme) {
      case Lookahead::kNone: {
        t_iter = t_panel + t_swap + t_dtrsm + t_ubcast + t_update;
        prof.exposed_panel = t_panel;
        prof.exposed_swap = t_swap;
        prof.exposed_dtrsm = t_dtrsm;
        prof.exposed_ubcast = t_ubcast;
        break;
      }
      case Lookahead::kBasic: {
        // Panel (of the next stage) overlaps the update; swap/DTRSM/U bcast
        // stay exposed (Figure 8b). With multiple cards the matrix is
        // partitioned per card/socket, so the steps of one partition overlap
        // the other partition's update: the exposed span divides by cards.
        const double overlap = cfg.cards > 1 ? 1.0 + 0.6 * (cfg.cards - 1) : 1.0;
        const double steps_eff = (t_swap + t_dtrsm + t_ubcast) / overlap;
        t_iter = steps_eff + std::max(t_update, t_panel);
        const double share =
            t_swap + t_dtrsm + t_ubcast > 0
                ? steps_eff / (t_swap + t_dtrsm + t_ubcast)
                : 0.0;
        prof.exposed_panel = std::max(0.0, t_panel - t_update);
        prof.exposed_swap = t_swap * share;
        prof.exposed_dtrsm = t_dtrsm * share;
        prof.exposed_ubcast = t_ubcast * share;
        break;
      }
      case Lookahead::kPipelined: {
        const double overlap = cfg.cards > 1 ? 1.0 + 0.6 * (cfg.cards - 1) : 1.0;
        const double steps = (t_swap + t_dtrsm + t_ubcast) / overlap;
        const int s = std::max(1, cfg.pipeline_subsets);
        // Only the first column subset is exposed before the card starts;
        // every subset adds a fixed software-pipelining overhead.
        const double pre = steps / s + s * cfg.pipeline_subset_overhead_seconds;
        // The panel waits for its own column's subset to clear the pipeline.
        const double panel_delay = 2.0 * steps / s;
        t_iter = pre + std::max(t_update, t_panel + panel_delay);
        const double share =
            t_swap + t_dtrsm + t_ubcast > 0
                ? pre / (t_swap + t_dtrsm + t_ubcast)
                : 0.0;
        prof.exposed_swap = t_swap * share;
        prof.exposed_dtrsm = t_dtrsm * share;
        prof.exposed_ubcast = t_ubcast * share;
        prof.exposed_panel = std::max(0.0, t_panel + panel_delay - t_update);
        break;
      }
    }
    prof.total_seconds = t_iter;
    total += t_iter;
    exposed_total += prof.exposed_panel + prof.exposed_swap +
                     prof.exposed_dtrsm + prof.exposed_ubcast;
    if (cfg.capture_profile) res.profile.push_back(prof);
  }

  // Distributed triangular solve: two bandwidth-bound sweeps over the local
  // share of the factored matrix plus a pipelined chain of P+Q messages.
  const double local_bytes = 8.0 * static_cast<double>(n) * n / nodes;
  total += 2.0 * local_bytes / (0.3 * snb_lu.spec().stream_bw_gbs * 1e9) +
           (cfg.p + cfg.q) * net.send_seconds(8.0 * n / std::max(cfg.p, cfg.q));

  res.seconds = total;
  res.gflops = util::gflops(util::linpack_flops(n), total);
  res.efficiency = res.gflops / res.peak_gflops;
  res.exposed_fraction = exposed_total / total;
  return res;
}

HybridHplResult simulate_hybrid_hpl(const HybridHplConfig& config) {
  const sim::KncGemmModel knc;
  const sim::SnbModel snb;
  const sim::SnbLuModel snb_lu;
  const pci::PcieLink link;
  const net::CostModel net;
  return simulate_hybrid_hpl(config, knc, snb, snb_lu, link, net);
}

}  // namespace xphi::core
