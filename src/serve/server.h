// Long-running multi-tenant solve server over net::World ranks.
//
// Rank 0 is the dispatcher; ranks 1..workers are solve workers. The
// dispatcher replays an open-loop traffic trace (serve/job.h) and makes
// every scheduling decision — admission, lane selection, batching, worker
// placement — in *virtual time* against a fixed cost model, while the
// actual factorizations and solves run concurrently on the worker ranks
// with real wall clocks. That split is the determinism contract:
//
//   - Scheduling decisions are a pure function of (trace, config): virtual
//     arrival times come from the trace, virtual service times from the
//     cost model, and responses are collected in virtual-completion order
//     via (src, tag)-matched blocking recv — so the decision log and hash
//     are identical across runs, across machines, and across chaos
//     schedules (injected faults change wall time, never virtual time).
//   - Responses are bitwise deterministic: workers regenerate A from
//     (matrix_seed, n), factor with the deterministic kernels (optionally
//     through the functional offload engine, whose reliability protocol
//     absorbs dead cards without changing a bit), and
//     a cache hit returns the exact bits the first factorization produced.
//     Cache hit/miss *may* race under concurrency; that is why hit state
//     feeds metrics only, never scheduling.
//
// Admission and backpressure: each lane's queue is bounded
// (admission_queue; overflow = rejected job), and each worker accepts at
// most worker_inflight outstanding batches — which is exactly the mailbox
// soft cap wired into net::World, so a scheduling bug that overruns a
// worker surfaces as CommStats::soft_cap_breaches in the report.
//
// Batching: compatible jobs — same (n, matrix_seed) — from the batch lane
// coalesce into one super-stage (one factorization, many solves) up to
// max_batch, after the head job has aged batch_window_us in virtual time.
// Interactive jobs dispatch singly and immediately; batch-lane heads older
// than starvation_age_us override the interactive lane weight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/world.h"
#include "serve/job.h"
#include "trace/timeline.h"

namespace xphi::fault {
class Injector;
}

namespace xphi::serve {

struct ServeConfig {
  int workers = 2;
  /// Panel width of the worker-side factorizations.
  std::size_t nb = 32;

  // --- Scheduling knobs ---------------------------------------------------
  /// Virtual age the batch-lane head must reach before a non-full batch
  /// dispatches (coalescing window; interactive jobs never wait).
  double batch_window_us = 200;
  std::size_t cache_shards = 4;
  std::size_t cache_capacity = 32;  // total entries across shards
  /// Interactive dispatches allowed per batch dispatch when both lanes are
  /// ready (weighted round-robin).
  int lane_weight = 4;
  /// Per-lane admission bound: a job arriving to a full lane is rejected.
  std::size_t admission_queue = 64;

  /// Jobs coalesced into one batch at most.
  int max_batch = 8;
  /// Outstanding batches per worker; also the worker mailbox soft cap.
  int worker_inflight = 2;
  /// Batch-lane head older than this (virtual) overrides the lane weight.
  double starvation_age_us = 5000;

  /// Mailbox soft cap handed to net::World. 0 = derived from the admission
  /// parameters (workers * worker_inflight + 1, the healthy bound); tests
  /// set it lower to demonstrate breach counting.
  std::size_t mailbox_soft_cap = 0;

  bool use_cache = true;
  /// >0: the factorization's trailing updates run through the functional
  /// offload engine with this many cards (chaos: dead cards are absorbed by
  /// the reliability protocol without changing a bit). 0 = plain kernels.
  /// Applies to fp64 batches; mixed-precision batches factor through
  /// hpl::factor_mixed (the blocked driver).
  int factor_cards = 0;

  /// Fault injection: net faults (delay/slow/drop) on the World transport,
  /// DMA faults + scripted card deaths on the offload path (factor_cards).
  fault::Injector* injector = nullptr;
  double recv_timeout_seconds = 120;

  // --- Virtual cost model (seconds; pure function of the job shape) ------
  /// Modeled factor cost = n^3 * factor_cost_scale; solve = n^2 *
  /// solve_cost_scale per right-hand side. The absolute scale only shifts
  /// virtual latencies; determinism needs it fixed, not accurate.
  double factor_cost_scale = 2.0 / 3.0 / 1e9;
  double solve_cost_scale = 2.0 / 1e9;
  /// Mixed-precision cost multipliers: the fp32 factorization runs at ~2x
  /// the fp64 flop rate (factor cost halved), while each mixed job's solve
  /// is charged extra for the refinement schedule (initial fp32 solve +
  /// fp64 residual sweeps + correction solves). Deterministic model values,
  /// not measurements.
  double mixed_factor_cost_mult = 0.5;
  double mixed_solve_cost_mult = 3.0;
};

/// One job's outcome. `x` is empty iff the job was rejected.
struct JobOutcome {
  std::uint64_t id = 0;
  int tenant = 0;
  Lane lane = Lane::kInteractive;
  std::size_t n = 0;
  hpl::Precision precision = hpl::Precision::kFp64;
  bool rejected = false;
  bool cache_hit = false;  // batch-level; metrics only (may race)
  int worker = -1;
  std::uint64_t batch_id = 0;
  double virtual_latency_s = 0;  // virtual completion - arrival
  double wall_service_s = 0;     // measured factor share + this job's solve
  std::vector<double> x;
};

/// Per-tenant roll-up: latency percentiles over the tenant's completed
/// jobs, plus that tenant's attributed share of communication and worker
/// busy time (batch resources split evenly over the batch's jobs).
struct TenantRollup {
  int tenant = 0;
  std::size_t jobs = 0;
  std::size_t rejected = 0;
  std::size_t cache_hits = 0;
  double p50_virtual_latency_s = 0;
  double p99_virtual_latency_s = 0;
  double p50_wall_service_s = 0;
  double p99_wall_service_s = 0;
  double comm_bytes = 0;        // attributed request+response payload bytes
  double worker_busy_s = 0;     // attributed virtual span seconds
};

struct ServeReport {
  std::vector<JobOutcome> jobs;       // trace order
  std::vector<TenantRollup> tenants;  // tenant order

  /// The scheduling decision log — one line per admission decision and per
  /// batch dispatch, in decision order — and its FNV-1a hash. Identical
  /// across reruns and across chaos schedules.
  std::vector<std::string> decisions;
  std::uint64_t decision_hash = 0;

  /// Virtual-time worker occupancy (lane = worker index; kPanelFactor =
  /// factor phase, kTrsm = solves). Deterministic; exported to JSON via
  /// trace::timeline_to_json for the per-tenant roll-ups.
  trace::Timeline timeline;

  /// Per-rank transport counters (rank 0 = dispatcher).
  std::vector<net::CommStats> comm;
  std::size_t soft_cap_breaches = 0;  // summed over ranks

  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t batches = 0;
  std::size_t cache_hits = 0;    // batches served from the shared cache
  std::size_t cache_misses = 0;  // batches that factored
  double p50_virtual_latency_s = 0;
  double p99_virtual_latency_s = 0;
  double p50_wall_service_s = 0;
  double p99_wall_service_s = 0;
  double wall_elapsed_s = 0;  // dispatcher wall clock over the whole run
  double throughput_jobs_per_s = 0;  // completed / wall_elapsed_s
};

/// Runs the server over `trace` and returns the full report. The trace must
/// be sorted by arrival time (generate_trace output is).
ServeReport run_server(const std::vector<Job>& trace,
                       const ServeConfig& config = {});

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]; 0 on empty).
double percentile(std::vector<double> values, double q);

}  // namespace xphi::serve
