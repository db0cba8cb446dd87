// b_eff: effective-bandwidth sweep over net::World — message size x
// communication pattern — plus the collective probe that seeds the
// size-adaptive dispatch knobs.
//
// The b_eff benchmark (Rabenseifner's effective bandwidth) measures
// latency and bandwidth across a ladder of message sizes under several
// communication patterns and condenses them into one number: the average
// per-rank bandwidth over all (size, pattern) cells. Functional version:
//
//   - ring pattern: every rank exchanges with both grid neighbors in ring
//     order (the nearest-neighbor regime of HPL's broadcasts);
//   - random pattern: seeded random pairings exchange pairwise (the
//     worst-case locality regime; several pairings are averaged).
//
// On top of the point-to-point sweep sits the *collective probe*: for each
// ladder size, the same broadcast is timed through the binomial tree and
// through the segmented ring at every candidate segment. seed_net_knobs()
// turns that table into an analytic seed for World::bcast_auto's crossover
// and ring segment (a la spaces::microkernel_seed): the crossover is the
// largest probed size where the tree still beats every ring, the segment
// is the winner at the largest probed size. bench_tune's net_beff_seed row
// snaps the seed onto spaces::net() and gates that the seeded search
// matches the default configuration in fewer evaluations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/world.h"

namespace xphi::tune {
class SearchSpace;
}

namespace xphi::hpcc {

struct BeffOptions {
  int ranks = 8;
  /// Message-size ladder in doubles (empty = the default
  /// {1, 8, 64, 512, 4096, 32768}: 8 B to 256 KiB).
  std::vector<std::size_t> sizes_doubles;
  /// Exchange rounds per (pattern, size) cell.
  int reps = 8;
  /// Seeded random pairings averaged for the random pattern.
  int random_pairings = 4;
  std::uint64_t seed = 1;
  int net_workers = 0;
  /// Also time tree vs segmented-ring broadcasts per ladder size (the
  /// dispatch-knob seeding table).
  bool probe_collectives = true;
  /// Ring segments probed (empty = spaces::net()'s candidate list
  /// {128, 512, 1024, 4096}).
  std::vector<std::size_t> segment_candidates;
};

/// One (size, pattern) cell of the sweep.
struct BeffCell {
  std::size_t size_doubles = 0;
  double ring_gbs = 0;    // per-rank bandwidth, ring-neighbor exchange
  double random_gbs = 0;  // per-rank bandwidth, random pairwise exchange
  double ring_us = 0;     // mean per-message one-way time, microseconds
  double random_us = 0;
};

/// Collective probe at one ladder size: broadcast wall time through the
/// binomial tree vs the best segmented ring (and which segment won).
struct CollectiveProbe {
  std::size_t size_doubles = 0;
  double tree_seconds = 0;
  double ring_seconds = 0;          // best over segment candidates
  std::size_t best_segment = 0;
};

struct BeffResult {
  bool ok = false;
  /// The headline number: average per-rank bandwidth over every
  /// (size, pattern) cell, GB/s.
  double beff_gbs = 0;
  double seconds = 0;
  std::vector<BeffCell> cells;
  std::vector<CollectiveProbe> probes;  // empty unless probe_collectives
  std::vector<net::CommStats> comm_stats;
};

/// Dispatch knobs derived from a probe table.
struct NetKnobsSeed {
  std::size_t crossover_doubles = 0;
  std::size_t ring_segment = 0;
};

/// The analytic seed: crossover = largest probed size where the tree still
/// beats every ring (i.e. payloads *above* it should take the ring — the
/// exact World::bcast_auto contract); ring_segment = the winning segment at
/// the largest probed size. Falls back to the World defaults (1024/1024)
/// when the table is empty or the ring never wins.
NetKnobsSeed seed_net_knobs(const std::vector<CollectiveProbe>& probes);

/// seed_net_knobs snapped onto spaces::net()'s candidate grid — a start
/// point for tune::SearchOptions::start (the b_eff twin of
/// spaces::microkernel_seed).
std::vector<std::size_t> seed_net_point(
    const std::vector<CollectiveProbe>& probes,
    const tune::SearchSpace& net_space);

/// Runs the sweep on a fresh World of `options.ranks` ranks.
BeffResult run_beff(const BeffOptions& options = {});

}  // namespace xphi::hpcc
