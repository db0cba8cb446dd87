// Task-level cost models for the LU factorization kernels.
//
// The LU schedulers (native dynamic/static in lu/, hybrid in core/) are
// discrete-event simulations over these per-task costs:
//
//  * KncLuModel — costs of DGETRF panels, DLASWP, DTRSM and trailing-update
//    DGEMM tasks executed by thread groups on the Knights Corner card
//    (Section IV). The DGEMM task cost reuses the Section III kernel model;
//    the panel cost reflects its memory-latency-bound rank-1 updates and the
//    per-column pivot synchronization that makes wide groups see diminishing
//    returns — exactly the imbalance that motivates the paper's super-stage
//    regrouping.
//  * SnbLuModel — costs of the same kernels on the Sandy Bridge EP host,
//    where the hybrid implementation runs everything except the offloaded
//    trailing update (Section V).
//
// Synchronization costs (group barrier, global barrier, DAG critical
// section) are explicit parameters because the paper's two scheduling
// contributions — master-thread-only DAG access and infrequent super-stage
// barriers — exist precisely to control them.
#pragma once

#include <cstddef>

#include "sim/gemm_model.h"
#include "sim/machine.h"

namespace xphi::sim {

struct KncLuParams {
  // Efficiency of the panel's rank-1 updates. Panels are latency- and
  // synchronization-bound on the in-order cores; 12% of peak is calibrated
  // so the Figure 6 / 7 anchors hold (see EXPERIMENTS.md).
  double panel_eff = 0.12;
  // Per-column pivot reduction + broadcast cost for a group of t threads:
  // pivot_sync_seconds * log2(t).
  double pivot_sync_seconds = 0.5e-6;
  // Scheduling costs.
  double task_overhead_seconds = 2e-6;          // dispatch per task
  double dag_critical_section_seconds = 0.2e-6; // one DAG acquisition
  double group_barrier_seconds = 0.6e-6;        // intra-group barrier
  // All-threads barrier plus thread re-grouping, paid by the dynamic scheme
  // only at super-stage boundaries.
  double global_barrier_seconds = 60e-6;
  // Per-stage cost of the static look-ahead scheme: 240-thread barrier,
  // thread re-partitioning between panel and update roles, and post-switch
  // cache re-warm. Calibrated so the barrier regions of Figure 7a occupy
  // ~10-15% of the 5K timeline while amortizing to <1% at 30K.
  double static_stage_sync_seconds = 1.2e-3;
  // Fraction of each static stage lost to end-of-stage load imbalance: the
  // barrier waits for the slowest worker's last task, work that the dynamic
  // scheme back-fills with tasks from neighbouring stages. Calibrated so the
  // two schemes converge at 30K (Figure 6).
  double static_imbalance_frac = 0.105;
  // Compute-kernel efficiencies.
  double trsm_eff = 0.55;
  double swap_bw_fraction = 0.60;  // share of STREAM usable by DLASWP
};

class KncLuModel {
 public:
  explicit KncLuModel(MachineSpec spec = MachineSpec::knights_corner(),
                      KncLuParams params = {}, KncGemmParams gemm_params = {});

  const MachineSpec& spec() const noexcept { return spec_; }
  const KncLuParams& params() const noexcept { return params_; }
  const KncGemmModel& gemm_model() const noexcept { return gemm_; }

  /// DGETRF of a rows x nb panel on a group of `cores` cores.
  double panel_seconds(std::size_t rows, std::size_t nb, int cores) const noexcept;

  /// DLASWP of nb row pairs across `width` columns.
  double swap_seconds(std::size_t nb, std::size_t width) const noexcept;

  /// DTRSM: unit-lower nb x nb panel applied to nb x width block of U.
  double trsm_seconds(std::size_t nb, std::size_t width, int cores) const noexcept;

  /// Trailing-update DGEMM task: C(rows x n) -= L(rows x k) U(k x n) on a
  /// group of `cores` cores (no packing: inputs already tile-formatted).
  double update_gemm_seconds(std::size_t rows, std::size_t n, std::size_t k,
                             int cores) const noexcept;

 private:
  MachineSpec spec_;
  KncLuParams params_;
  KncGemmModel gemm_;
};

struct SnbLuParams {
  double panel_eff = 0.35;  // host panels are faster per flop (OoO cores)
  double pivot_sync_seconds = 0.2e-6;
  double trsm_eff = 0.70;
  double swap_bw_fraction = 0.60;
  // DGEMM done by the host's share of cores during work stealing.
};

class SnbLuModel {
 public:
  explicit SnbLuModel(MachineSpec spec = MachineSpec::sandy_bridge_ep(),
                      SnbLuParams params = {}, SnbModelParams dgemm_params = {});

  const MachineSpec& spec() const noexcept { return spec_; }
  const SnbLuParams& params() const noexcept { return params_; }

  double panel_seconds(std::size_t rows, std::size_t nb, int cores) const noexcept;
  double swap_seconds(std::size_t nb, std::size_t width) const noexcept;
  double trsm_seconds(std::size_t nb, std::size_t width, int cores) const noexcept;
  double dgemm_seconds(std::size_t m, std::size_t n, std::size_t k,
                       int cores) const noexcept;

 private:
  MachineSpec spec_;
  SnbLuParams params_;
  SnbModel dgemm_;
};

}  // namespace xphi::sim
