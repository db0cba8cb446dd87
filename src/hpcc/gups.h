// GUPS / RandomAccess: seeded batched remote updates through the pci/net
// queues.
//
// The HPC Challenge RandomAccess benchmark measures how fast a machine can
// apply tiny dependent updates to random locations of a huge table — the
// antithesis of HPL's dense streaming. Functional version on the substrate:
// a table of 2^table_bits u64 words is split into near-equal contiguous
// chunks across the World's ranks; every rank generates its share of the
// update stream (value u_k = a pure hash of (seed, origin rank, k), so any
// rank can replay any other's stream) and routes each update to the chunk
// owner through the fabric:
//
//   - updates are coalesced into batches of `batch` values per destination
//     (u64 bit-cast into the Payload doubles — no arithmetic touches them
//     in flight);
//   - the exchange runs in rounds: one message per peer per round, empty
//     ones included, so termination needs no traffic counting;
//   - a rank may run `lookahead` rounds ahead of its receive processing
//     (the look-ahead window of the HPL schedules, transplanted), which
//     directly sets the mailbox pressure the CommStats expose;
//   - locally-owned and received batches funnel through a bounded
//     pci::BlockingQueue — the functional stand-in for the host-to-card
//     DMA hop of the offload engine — whose capacity is the same lookahead
//     window, so the knob bounds both transports at once.
//
// The update is XOR (the benchmark's own choice): commutative and
// associative, so the final table is bitwise independent of arrival order
// — which is what makes the ≤1% error gate meaningful as a *transport*
// check, and what lets the chaos tests demand bit-identical tables under
// injected net faults.
//
// Verification gate: every rank replays the full update stream serially
// (pure-hash values make that possible without communication), rebuilds its
// own chunk, and counts mismatching words. The standard gate accepts up to
// 1% errors; this implementation is deterministic, so a correct run scores
// exactly 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/world.h"

namespace xphi::fault {
class Injector;
}

namespace xphi::hpcc {

struct GupsOptions {
  /// Table size = 2^table_bits u64 words, split across ranks.
  std::size_t table_bits = 16;
  /// Updates each rank originates (0 = the benchmark's 4x table coverage:
  /// 4 * table_size / ranks).
  std::size_t updates_per_rank = 0;
  /// Updates coalesced per destination per round.
  std::size_t batch = 1024;
  /// Rounds a rank may run ahead of its receive processing, and the local
  /// update-queue depth in batches (>= 1).
  std::size_t lookahead = 4;

  std::size_t net_crossover_doubles = 0;  // 0 = World default
  std::size_t net_ring_segment = 0;
  int net_workers = 0;
  double recv_timeout_seconds = 120;
  std::size_t mailbox_soft_cap = 0;
  fault::Injector* injector = nullptr;  // null = clean
};

struct GupsResult {
  /// True when the replayed-table error rate passed the 1% gate (a correct
  /// run scores exactly 0).
  bool ok = false;
  double error_rate = 0;
  double seconds = 0;
  /// Giga-updates per second over the whole fabric.
  double gups = 0;
  std::size_t total_updates = 0;
  std::size_t table_size = 0;
  /// FNV-1a over the final table in rank order — the bitwise identity the
  /// chaos tests compare across clean and faulted runs.
  std::uint64_t table_fnv = 0;
  std::vector<net::CommStats> comm_stats;
};

/// The k-th update value originated by `origin`: a pure function of
/// (seed, origin, k), so any rank can replay any stream (the verification
/// contract). The target index is value % table_size.
std::uint64_t gups_update_value(std::uint64_t seed, int origin,
                                std::uint64_t k) noexcept;

/// Runs distributed RandomAccess over `ranks` ranks and verifies by serial
/// replay.
GupsResult run_gups(int ranks, std::uint64_t seed = 42,
                    const GupsOptions& options = {});

}  // namespace xphi::hpcc
