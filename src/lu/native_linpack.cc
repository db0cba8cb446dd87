#include "lu/native_linpack.h"

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
  report.functional = run_functional_dag_lu(n_functional, fnb, options.workers,
                                            options.seed, options.panel);
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
    const auto plan =
        model_tuned_plan(model, cfg.n, cfg.nb, model.spec().compute_cores());
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
