// Offload DGEMM: the trailing-update engine of hybrid HPL (paper Section
// V-B, Figures 10 and 11).
//
// The host cuts C into Mt x Nt tiles, packs the A/B operands into the
// Knights Corner-friendly format, and DMAs them to the card(s); each card
// computes tile products with the native DGEMM and DMAs the results back for
// host-side accumulation. Input/output transfers are double-buffered against
// compute, so the steady-state tile cycle is max(compute, transfers, pack);
// the first tile's input and the last tile's output are exposed — the
// overhead the paper attributes 2.5% to at 82K, growing as tiles get fewer.
//
// Knobs map one-to-one onto the paper's design points: Kt sized by the
// Kt > 4*P/BW rule, runtime-adaptive (Mt, Nt) selection, two-ended dynamic
// work stealing against the host, partial-tile merging, and one
// communication core reserved on each card (the 1.5% loss).
#pragma once

#include <cstddef>
#include <utility>

#include "pci/link.h"
#include "sim/gemm_model.h"
#include "tune/knobs.h"

namespace xphi::core {

struct OffloadDgemmConfig {
  std::size_t m = 0, n = 0;
  std::size_t kt = 1200;  // offload panel depth
  int cards = 1;
  /// Shared knob record (tune/knobs.h): knobs.mt/.nt select the tile size,
  /// 0 = runtime-adaptive selection from the model-evaluated candidate
  /// table (tune_tile_size).
  tune::Knobs knobs;
  bool merge_partial_tiles = true;
  // Host participation: when true the host's compute cores steal tiles from
  // the opposite corner (used inside hybrid HPL); the pure offload-DGEMM
  // benchmark of Figure 11 runs with the host only packing/transferring.
  bool host_steals = false;
  int host_compute_cores = 0;
  // When false, tiles are split statically by the peak-flops ratio instead
  // of stolen dynamically (ablation baseline).
  bool dynamic_stealing = true;
  bool contended_pcie = true;
};

struct OffloadDgemmResult {
  double seconds = 0;
  double gflops = 0;
  /// Efficiency basis: cards * full KNC peak (+ host peak when it computes).
  double efficiency = 0;
  std::size_t mt = 0, nt = 0;   // tile size actually used
  std::size_t tiles_total = 0;
  std::size_t tiles_host = 0;
  double knc_busy_seconds = 0;      // per-card average compute time
  double exposed_transfer_seconds = 0;  // first/last tile exposure per card
};

/// Runtime-adaptive tile selection: evaluates the candidate (Mt, Nt) table
/// and returns the pair that maximizes modeled offload efficiency for an
/// m x n update (paper: "for each matrix size ... pre-compute the best tile
/// sizes ... and dynamically pick the best tile size at run-time").
std::pair<std::size_t, std::size_t> tune_tile_size(
    std::size_t m, std::size_t n, std::size_t kt, const sim::KncGemmModel& knc,
    const pci::PcieLink& link, bool contended = true);

/// Discrete-event simulation of one offload DGEMM: C(m x n) += A(m x kt) *
/// B(kt x n) spread over the configured cards (and host, if it steals).
OffloadDgemmResult simulate_offload_dgemm(const OffloadDgemmConfig& config,
                                          const sim::KncGemmModel& knc,
                                          const sim::SnbModel& snb,
                                          const pci::PcieLink& link);

}  // namespace xphi::core
