// The traced run: per-layer metrics, measured from outside by timing calls
// into the public functions of blas, lu, hpl, core, net, serve, util and
// hpcc. It is separate from the timed workloads, so tracing never perturbs
// an end-to-end number; blas.trace_overhead_frac reports what tracing the
// blas stage loop costs.
#pragma once

#include "suite/bench_common.h"
#include "suite/workloads.h"

namespace xphi::bench {

/// Runs every layer probe once. Correctness gates (residuals, the traced
/// stage loop's bitwise match with getrf_blocked, the DAG executor's
/// bitwise match, STREAM's closed-form check, serve answers) are recorded
/// as checks in the returned record.
RunRecord run_layers(const RunArgs& args, const Sizes& sizes,
                     const HostInfo& host);

}  // namespace xphi::bench
