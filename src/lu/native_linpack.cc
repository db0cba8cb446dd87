#include "lu/native_linpack.h"

#include "tune/bucket.h"
#include "tune/tuner.h"

namespace xphi::lu {

NativeLinpackReport run_native_linpack(std::size_t n_functional,
                                       std::size_t n_projected,
                                       const NativeLinpackOptions& options,
                                       const sim::KncLuModel& model) {
  NativeLinpackReport report;
  // The functional scheduler is always the DAG executor (the static scheme
  // differs only in when work runs, which real threads do not replay
  // deterministically; numerics are scheduler-independent).
  const std::size_t fnb =
      options.functional_nb != 0 ? options.functional_nb : options.nb;
  blas::PanelOptions panel = options.panel;
  if (options.tuner != nullptr) {
    if (const auto tuned = options.tuner->best(
            "panel", tune::bucket(n_functional, fnb, fnb))) {
      if (tuned->panel_nb_min > 0) panel.nb_min = tuned->panel_nb_min;
      if (tuned->laswp_col_chunk > 0)
        panel.laswp_col_chunk = tuned->laswp_col_chunk;
      if (tuned->microkernel != 0) panel.microkernel = tuned->microkernel;
    }
    // A dedicated micro-kernel co-design entry (spaces::microkernel) wins
    // over whatever kernel the coarser panel search happened to record.
    if (const auto tuned = options.tuner->best(
            "microkernel", tune::bucket(n_functional, fnb, fnb))) {
      if (tuned->microkernel != 0) panel.microkernel = tuned->microkernel;
    }
  }
  report.functional = run_functional_dag_lu(n_functional, fnb, options.workers,
                                            options.seed, panel);
  if (report.functional.factor_seconds > 0) {
    const double nd = static_cast<double>(n_functional);
    report.functional_factor_gflops =
        (2.0 / 3.0) * nd * nd * nd / report.functional.factor_seconds / 1e9;
  }
  NativeLuConfig cfg;
  cfg.n = n_projected;
  cfg.nb = options.nb;
  cfg.capture_timeline = options.capture_timeline;
  if (options.scheduler == Scheduler::kDynamic) {
    int max_group = 0;
    std::size_t period = 1;
    if (options.tuner != nullptr) {
      if (const auto tuned = options.tuner->best(
              "native_lu", tune::bucket(cfg.n, cfg.n, cfg.nb))) {
        max_group = tuned->superstage_max_group;
        if (tuned->superstage_period > 0) period = tuned->superstage_period;
      }
    }
    const auto plan = model_tuned_plan(model, cfg.n, cfg.nb,
                                       model.spec().compute_cores(), max_group,
                                       period);
    report.projected = simulate_dynamic_lu(cfg, model, plan);
  } else {
    report.projected = simulate_static_lookahead_lu(cfg, model);
  }
  return report;
}

NativeLinpackReport run_native_linpack(std::size_t n_functional,
                                       std::size_t n_projected,
                                       const NativeLinpackOptions& options) {
  return run_native_linpack(n_functional, n_projected, options,
                            sim::KncLuModel{});
}

}  // namespace xphi::lu
