// Functional distributed HPL: a real block-cyclic LU factorization with
// partial pivoting over in-process message-passing ranks (net::World).
//
// This is the functional twin of the multi-node performance simulation in
// core/hybrid_hpl.h: it actually executes the communication pattern the
// simulation costs — panel gather/factor/broadcast, cross-row pivot
// exchanges, U forward-solve and broadcast down the columns, local trailing
// updates. Each run checks itself once, as HPL does: the scaled residual of
// the returned solution, computed over the distributed data. The factors
// never travel after the factorization: each rank writes its own share into
// the returned matrix for the tests, which compare it against the
// sequential blocked factorization.
//
// The look-ahead (Section IV, Figure 8) reorders the same rank stage. A
// stage swaps rows, solves and sends the U block of column subset 0,
// updates it, starts the next panel, then solves and sends the rest's U as
// one message and updates the rest while that panel travels:
//   kNone  — subset 0 is the whole trailing matrix: the next panel starts
//            only after the whole update (Figure 8a).
//   kBasic — subset 0 is the next panel's columns, so the next panel is
//            gathered, factored and sent right after they are updated and
//            overlaps the rest of the trailing update (Figure 8b).
// The paper's pipelined scheme (Figure 8c) also streams the U broadcast,
// swaps and TRSM per column subset; only the simulator (core::Lookahead)
// models it. Every panel and U transfer is a flat isend/irecv fan-out. Both
// schedules produce bitwise-identical pivots and factors: swaps only move
// data, TRSM is independent per column, and the column split changes no
// per-element accumulation order (see gemm_tiled.h).
//
// Scope note (documented in DESIGN.md): the panel is gathered to a root rank
// and factored there rather than factored in place across the process
// column; pivot exchanges are pairwise between the two owner rows. This
// preserves the exact numerics and the full swap/broadcast communication
// structure at the small sizes the functional tests run; the performance
// cost of the in-place distributed panel is what the simulation models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/offload_functional.h"
#include "hpl/block_cyclic.h"
#include "hpl/precision.h"
#include "net/world.h"
#include "util/matrix.h"

namespace xphi::trace {
class Timeline;
}

namespace xphi::hpl {

/// Look-ahead of the factorization schedule — the functional twin of
/// core::Lookahead (the simulator's cost model of the paper's schemes).
/// kPipelined is an alias of kBasic: on the grid it only split the rest's
/// update into back-to-back GEMMs, which changed neither the messages nor
/// the time. It stays for the callers that still name it.
enum class Lookahead { kNone, kBasic, kPipelined = kBasic };

struct DistributedHplOptions {
  /// When true, each rank's local trailing update runs through the
  /// functional offload engine (card threads + request/response queues +
  /// two-ended work stealing) instead of a plain local GEMM — the
  /// functional twin of the full multi-node *hybrid* HPL.
  bool use_offload_engine = false;
  core::FunctionalOffloadConfig offload{};

  Lookahead lookahead = Lookahead::kNone;

  /// Optional capture of per-rank compute and communication spans
  /// (lane = rank; kBroadcast covers panel/U transfers and their waits,
  /// kRowSwap the pivot exchanges). Filled after the run completes.
  trace::Timeline* timeline = nullptr;

  /// Worker OS threads for the World's cooperative rank scheduler
  /// (0 = min(ranks, hardware_concurrency)).
  int net_workers = 0;

  /// Deterministic fault injection handed to net::World (per-message
  /// delay/drop, scripted slow/dead ranks; see World::set_fault_injector).
  /// To also fault the offload DMA path, set offload.injector. Null = clean.
  fault::Injector* injector = nullptr;

  /// Precision::kMixed demotes the local shares to fp32, runs every
  /// factorization stage through the float instantiation of the templated
  /// drivers (the panel/U/trailing payloads still travel as doubles —
  /// widening a float is exact, so the transport is bit-exact and the fp64
  /// path is untouched), then recovers the fp64 answer with distributed
  /// iterative refinement: r = b - Ax in fp64 (allreduced partial sums),
  /// correction solved through the fp32 factors, on a fixed deterministic
  /// schedule until the standard scaled-residual gate passes — the SAME
  /// blas::kHplResidualThreshold gate as fp64, no relaxation.
  Precision precision = Precision::kFp64;
  /// Correction-solve cap of the refinement schedule (kMixed only).
  int refine_max_iters = 30;
};

struct DistributedHplResult {
  /// residual < blas::kHplResidualThreshold.
  bool ok = false;
  /// Scaled HPL residual of x, computed *distributed*: every rank
  /// regenerates its local entries of A, contributes partial row sums of
  /// A*x and |A|, and the norms are combined with a ring allreduce — no
  /// gathered matrix needed. Under kMixed it is refine_trace.back().
  double residual = 0;
  /// Factored matrix (L\U in place, rows swapped), written share by share:
  /// every rank stores its own local entries at their global positions, so
  /// no factor is sent. The tests' oracle view of the distributed factors;
  /// the run itself never reads it. Under Precision::kMixed these are the
  /// fp32 factors widened to double (exact), so they compare bitwise against
  /// a sequential getrf_blocked<float> of the demoted matrix.
  util::Matrix<double> factored;
  /// Absolute global row interchanges, stage-ordered.
  std::vector<std::size_t> ipiv;
  /// Solution of Ax = b computed by the *distributed* triangular solves
  /// (block forward/back substitution with row-reductions and broadcasts).
  std::vector<double> x;
  /// Per-rank communication counters (bytes, messages, blocked-wait time,
  /// mailbox high-water mark), indexed by rank.
  std::vector<net::CommStats> comm_stats;
  /// kMixed only: correction solves applied, and the scaled fp64 residual
  /// evaluated before each correction plus the final value. Every rank
  /// computes the trace from the same allreduced data, so it is
  /// bitwise-identical across ranks and across clean/faulted runs.
  int refine_iterations = 0;
  std::vector<double> refine_trace;
};

/// Factors the seeded HPL matrix of order n on a P x Q grid with panel width
/// nb, solves Ax = b distributed (kMixed: and refines), checks the residual
/// of that solution, and returns it with the factors.
DistributedHplResult run_distributed_hpl(std::size_t n, std::size_t nb,
                                         Grid grid, std::uint64_t seed = 42,
                                         const DistributedHplOptions& options = {});

}  // namespace xphi::hpl
