// Distributed PTRANS: A = beta*A + alpha*B^T over a P x Q process grid.
//
// The HPC Challenge transpose benchmark, functional on net::World. A and B
// are N x N matrices in the same block-cyclic layout the distributed HPL
// uses (hpl/block_cyclic.h). The transpose is the communication stress: the
// owner of A block (bi, bj) needs B block (bj, bi), which in general lives
// on an unrelated rank, so every rank exchanges with every other rank — a
// pairwise all-to-all pattern none of the HPL schedules (row/column
// broadcasts, ring reductions) ever produces.
//
// Protocol per rank:
//   1. rank 0 broadcasts the checksum probe vectors through bcast_auto with
//      an exact size hint, so the transpose path exercises the size-adaptive
//      collective dispatch (forced tree vs forced ring must be bitwise
//      invisible — pinned by tests/hpcc/ptrans_test.cc);
//   2. scale the local A blocks by beta;
//   3. for every local B block, transpose it with a cache-blocked kernel
//      into the payload headed for the owner of the mirrored A block — one
//      coalesced message per destination rank, empty messages included so
//      the round is deterministic without counting traffic in advance;
//   4. receive one message from every peer and add alpha * B^T into the
//      local A blocks. Every A element receives exactly one contribution,
//      so arrival order cannot change a single bit.
//
// Verification gate (the HPL treatment): each rank regenerates its local
// entries of the reference beta*A0 + alpha*B^T from the seed — the same
// two-step arithmetic the transpose path performs — and the run fails unless
// the result matches *bitwise* (residual 0). A u^T * A * v checksum against
// the serially computed reference guards the assembled matrix end to end
// (summation order differs, so this gate is a relative-error one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hpl/block_cyclic.h"
#include "net/world.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace xphi::fault {
class Injector;
}

namespace xphi::hpcc {

struct PtransOptions {
  /// Block size of the block-cyclic layout. N need not divide it.
  std::size_t nb = 64;
  double alpha = 1.0;
  double beta = 1.0;

  /// Size-adaptive collective dispatch handed to net::World (0 = World
  /// defaults; the knobs bench_tune sweeps in tune::spaces::net()).
  std::size_t net_crossover_doubles = 0;
  std::size_t net_ring_segment = 0;
  /// Worker OS threads for the World scheduler (0 = automatic).
  int net_workers = 0;
  /// Receive timeout handed to net::World (seconds; 0 = wait forever).
  double recv_timeout_seconds = 120;
  /// Deterministic fault injection on message delivery (null = clean).
  fault::Injector* injector = nullptr;
  /// Skip gathering the full result to rank 0 (large runs that only need
  /// the residual/checksum gates).
  bool skip_gather = false;
};

struct PtransResult {
  /// True when both gates passed: bitwise residual == 0 and the checksum
  /// agrees with the serial reference to relative 1e-10.
  bool ok = false;
  /// max over all ranks of max |A(i,j) - ref(i,j)| — exactly 0.0 on a
  /// correct run (the transpose moves bits, it never rounds differently).
  double residual = 0;
  /// u^T A v computed distributed (ring allreduce, order-pinned) and its
  /// serial reference.
  double checksum = 0;
  double ref_checksum = 0;
  double seconds = 0;
  /// Transpose exchange bandwidth: bytes of B^T payload crossing rank
  /// boundaries per second (GB/s; 0 on a 1x1 grid).
  double gbytes_per_s = 0;
  /// Result matrix assembled on rank 0 (empty when skip_gather).
  util::Matrix<double> a;
  /// Per-rank traffic counters, indexed by rank.
  std::vector<net::CommStats> comm_stats;
};

/// The reference entry: beta*A0(i, j) + alpha*B(j, i) computed with the
/// exact operation sequence the distributed path uses (scale pass, then
/// add), so a correct run matches it bit for bit. A0 and B are the seeded
/// HPL matrices of `seed_a(seed)` / `seed_b(seed)`.
inline std::uint64_t seed_a(std::uint64_t seed) noexcept { return seed * 2 + 1; }
inline std::uint64_t seed_b(std::uint64_t seed) noexcept { return seed * 2 + 2; }
inline double ptrans_ref_entry(std::uint64_t seed, std::size_t i, std::size_t j,
                               double alpha, double beta) noexcept {
  double v = beta * util::hpl_entry(seed_a(seed), i, j);
  v += alpha * util::hpl_entry(seed_b(seed), j, i);
  return v;
}

/// Full n x n reference matrix (for bit-comparison in tests and the bench).
util::Matrix<double> ptrans_reference(std::size_t n, std::uint64_t seed,
                                      double alpha = 1.0, double beta = 1.0);

/// Cache-blocked local transpose: dst(j, i) = src(i, j). dst must be
/// src.cols() x src.rows().
void transpose_blocked(util::ConstMatrixView<double> src,
                       util::MatrixView<double> dst);

/// Runs distributed PTRANS on the seeded matrices over `grid` and verifies
/// against the regenerated reference.
PtransResult run_ptrans(std::size_t n, hpl::Grid grid, std::uint64_t seed = 42,
                        const PtransOptions& options = {});

}  // namespace xphi::hpcc
