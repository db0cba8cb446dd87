// Hybrid HPL driver (paper Section V): Sandy Bridge EP hosts running panel
// factorization, row swapping, DTRSM and the broadcasts, with the trailing
// update offloaded to one or two Knights Corner cards per node, on a P x Q
// process grid over FDR InfiniBand.
//
// The three look-ahead schemes of Figure 8 are modeled per iteration:
//
//   kNone      — everything serial: the card idles through panel, swap,
//                DTRSM and broadcasts (Figure 8a).
//   kBasic     — the next panel factorization (and its broadcast) overlaps
//                the current trailing update; U broadcast, swapping and
//                DTRSM remain exposed (Figure 8b; ~13% idle at 84K).
//   kPipelined — U broadcast, swapping and DTRSM are software-pipelined over
//                column subsets, so only the first subset is exposed; the
//                extra per-subset overhead delays the panel, which grows
//                more exposed in late iterations (Figure 8c; <3% idle).
//
// cards == 0 selects the CPU-only baseline (MKL HPL envelope plus the same
// communication exposure), the first section of Table III.
#pragma once

#include <cstddef>
#include <vector>

#include "core/offload_dgemm.h"
#include "net/cost_model.h"
#include "pci/link.h"
#include "sim/gemm_model.h"
#include "sim/lu_model.h"

namespace xphi::core {

enum class Lookahead { kNone, kBasic, kPipelined };

struct HybridHplConfig {
  std::size_t n = 84000;
  std::size_t nb = 1200;  // panel width == offload Kt
  int p = 1, q = 1;       // process grid (nodes = p * q)
  int cards = 1;          // Knights Corner cards per node; 0 = CPU-only
  Lookahead scheme = Lookahead::kPipelined;
  int pipeline_subsets = 8;
  double pipeline_subset_overhead_seconds = 2e-3;
  std::size_t host_mem_gib = 64;
  int host_panel_cores = 8;
  int host_steal_cores = 13;  // host cores computing stolen tiles
  bool capture_profile = false;
};

struct IterationProfile {
  std::size_t iter = 0;
  std::size_t width = 0;        // trailing matrix size after this panel
  double update_seconds = 0;    // card (+host) DGEMM time
  double exposed_swap = 0;      // card idle during row swaps
  double exposed_dtrsm = 0;
  double exposed_ubcast = 0;
  double exposed_panel = 0;     // panel time not hidden under the update
  double total_seconds = 0;
};

struct HybridHplResult {
  double seconds = 0;
  double gflops = 0;      // aggregate over the whole grid
  double efficiency = 0;  // vs nodes * (host peak + cards * KNC peak)
  double peak_gflops = 0;
  bool fits_memory = true;
  double exposed_fraction = 0;  // card idle time / total (Figure 9 headline)
  std::vector<IterationProfile> profile;
};

HybridHplResult simulate_hybrid_hpl(const HybridHplConfig& config,
                                    const sim::KncGemmModel& knc,
                                    const sim::SnbModel& snb,
                                    const sim::SnbLuModel& snb_lu,
                                    const pci::PcieLink& link,
                                    const net::CostModel& net);

/// Convenience overload with default models.
HybridHplResult simulate_hybrid_hpl(const HybridHplConfig& config);

}  // namespace xphi::core
