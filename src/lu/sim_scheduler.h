// Discrete-event simulations of the two native Linpack schedulers
// (paper Section IV): the DAG-based *dynamic scheduling* with look-ahead and
// super-stage regrouping, and the *static look-ahead* baseline with a global
// barrier per stage. These produce the performance curves of Figure 6 and
// the Gantt charts of Figure 7.
//
// Both simulators share the PanelDag / task definitions with the functional
// (real-thread, real-numerics) executor in lu/functional.h — the scheduling
// logic that is measured is the logic that is tested.
#pragma once

#include <cstddef>

#include "lu/thread_plan.h"
#include "sim/lu_model.h"
#include "trace/timeline.h"

namespace xphi::lu {

struct NativeLuConfig {
  std::size_t n = 30000;
  std::size_t nb = 240;
  bool capture_timeline = false;
  // The original Buttari-style scheme lets every thread of a group contend
  // on the DAG critical section; the paper restricts access to the group
  // master. Setting this false models the original (ablation).
  bool master_only_dag_access = true;
};

struct NativeLuResult {
  double factor_seconds = 0;
  double solve_seconds = 0;
  double seconds = 0;  // factor + solve
  double gflops = 0;   // Linpack rating flops / seconds
  double efficiency = 0;  // vs native peak (compute cores only)
  double panel_busy_seconds = 0;   // total DGETRF time across groups
  double barrier_seconds = 0;      // total global-barrier wall time
  trace::Timeline timeline;        // populated when capture_timeline
};

/// Dynamic DAG scheduling over the groups in `plan`.
NativeLuResult simulate_dynamic_lu(const NativeLuConfig& config,
                                   const sim::KncLuModel& model,
                                   const ThreadPlan& plan);

/// Static look-ahead: per stage, the minimum group that hides the next panel
/// factorization under the trailing update, global barrier between stages.
NativeLuResult simulate_static_lookahead_lu(const NativeLuConfig& config,
                                            const sim::KncLuModel& model);

/// The paper's super-stage plan: for each stage, the smallest power-of-two
/// group that the model predicts hides the panel factorization under the
/// trailing update, merged into monotonically growing super-stages.
///
/// `max_group_cores` caps the per-group core count (0 = the paper's default
/// of total_cores / 2); `regroup_period` quantizes where a new super-stage
/// may begin — growth requested mid-period is deferred to the next multiple
/// of the period, trading regrouping barriers against panel exposure. Both
/// are swept offline by bench_tune's native_lu op (tune::spaces::
/// superstage); the defaults reproduce the original plan exactly.
ThreadPlan model_tuned_plan(const sim::KncLuModel& model, std::size_t n,
                            std::size_t nb, int total_cores,
                            int max_group_cores = 0,
                            std::size_t regroup_period = 1);

}  // namespace xphi::lu
