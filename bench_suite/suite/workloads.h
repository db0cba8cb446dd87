// The suite's timed workloads and the problem sizes shared with the traced
// layer suite (suite/layers.h).
//
// Every workload is a stream of HPL solve requests whose answers are checked
// against the unrelaxed residual gate, run in one process with at most four
// busy threads. A workload's set-up (pool or buffers, first touch, one
// discarded full-size warm-up repetition on the inputs of --seed itself) is
// repeated kSetups times and reported as the median `setup_s`; the three
// warm-up answers must agree bit for bit. Then repetitions run until the
// time budget is spent, each on fresh inputs drawn from Rng(--seed), so one
// run's median averages over many matrices (refinement iteration counts and
// serve traffic mixes vary with the input) instead of hanging on one. Each
// repetition yields one sample of:
//   gflops      HPL-rated flops (2/3 n^3 + 2 n^2 per answer) delivered per
//               second of the repetition's wall time;
//   latency_ms  the time one answer took: the repetition itself for the
//               single-solve workloads, the median per-job wall service for
//               serve_repeat.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hpl/distributed.h"
#include "serve/job.h"
#include "serve/server.h"
#include "suite/bench_common.h"

namespace xphi::bench {

/// Problem sizes; full runs use the defaults, --smoke the tiny set.
struct Sizes {
  std::size_t nb = 64;
  std::size_t lu_n = 3072;      // lu_node, lu_mixed, blas/lu/hpl.mixed layers
  std::size_t grid_n = 2048;    // hpl_grid, hpl_grid_mixed, net/hpl.grid layers
  std::size_t hybrid_n = 1536;  // hybrid_offload, core layers
  std::size_t serve_jobs = 2000;
  std::vector<std::size_t> serve_sizes = {128, 192, 256};
  std::size_t gemm_n = 1024;    // blas.gemm1024
  int min_reps = 5;

  static Sizes smoke();
};

inline constexpr int kSetups = 3;

/// Right-hand side of the seeded HPL system every driver solves (the
/// library's convention: Rng(seed ^ 0xb0b); A is util::fill_hpl_matrix).
std::vector<double> hpl_rhs(std::size_t n, std::uint64_t seed);

/// Options of the 2x2 grid runs: pipelined look-ahead, four World workers.
hpl::DistributedHplOptions grid_options(hpl::Precision precision);

/// serve_repeat's traffic (repeat-heavy, a quarter of jobs mixed precision)
/// and server (three workers, an LU cache the hot set fits in).
serve::TrafficConfig serve_traffic(const Sizes& sizes, std::uint64_t seed);
serve::ServeConfig serve_config();

/// Names of the timed workloads, in --workload all order.
const std::vector<std::string>& workload_names();

/// Runs one timed workload (set-ups, then repetitions for args.seconds).
RunRecord run_workload(const std::string& name, const RunArgs& args,
                       const Sizes& sizes);

}  // namespace xphi::bench
