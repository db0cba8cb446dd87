// The library's front door for native Linpack (paper Section IV): one call
// that runs the benchmark cycle — generate, factor, solve, residual-check —
// with the DAG scheduler on real host threads, and one call that projects
// the same algorithm on the modeled Knights Corner card with either
// scheduler. examples/quickstart.cpp uses exactly this API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lu/functional.h"
#include "lu/sim_scheduler.h"

namespace xphi::lu {

enum class Scheduler { kDynamic, kStaticLookahead };

struct NativeLinpackOptions {
  std::size_t nb = 240;           // projection panel width (paper: 240)
  std::size_t functional_nb = 0;  // panel width for the functional run; 0 = nb
  Scheduler scheduler = Scheduler::kDynamic;
  // Functional run:
  int workers = 4;
  std::uint64_t seed = 42;
  // Projection:
  bool capture_timeline = false;
  /// Critical-path kernel knobs for the functional run (panel recursion
  /// cutoff, fused-LASWP column chunk, micro-kernel; the pool is ignored).
  blas::PanelOptions panel;
};

struct NativeLinpackReport {
  /// Residual-checked functional run at `n_functional`.
  FunctionalLuResult functional;
  /// Measured GF/s of the functional factorization (2/3·n³ over the timed
  /// DAG factor); 0 when the run was too fast to time.
  double functional_factor_gflops = 0;
  /// Modeled Knights Corner performance at `n_projected`.
  NativeLuResult projected;
};

/// Runs the functional benchmark at `n_functional` on host threads and the
/// performance projection at `n_projected` on the Knights Corner model.
NativeLinpackReport run_native_linpack(std::size_t n_functional,
                                       std::size_t n_projected,
                                       const NativeLinpackOptions& options,
                                       const sim::KncLuModel& model);
NativeLinpackReport run_native_linpack(std::size_t n_functional,
                                       std::size_t n_projected,
                                       const NativeLinpackOptions& options = {});

}  // namespace xphi::lu
