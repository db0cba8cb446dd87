// Functional (real-numerics) twin of offload DGEMM.
//
// Mirrors Figure 10b with host threads standing in for the coprocessor(s):
// the host packs each stolen tile's operands into Knights Corner tile format
// and enqueues a request; a card thread dequeues, runs the tiled GEMM kernel
// on the packed operands into a "device-memory" buffer, and enqueues the
// result; an accumulator thread folds results back into the original C. The
// host can simultaneously steal tiles from the opposite corner and compute
// them in place. Tests validate the result against the reference GEMM, that
// every tile is processed exactly once, and that partial-tile merging covers
// ragged shapes.
//
// With a fault::Injector attached the link becomes unreliable and the
// engine runs a reliability protocol over it: every request/result carries
// an FNV checksum of its payload, a corrupted transfer is NACKed or
// discarded and resent with bounded retries and exponential backoff, a
// vanished transfer is recovered by a retry timeout, duplicated transfers
// are deduplicated by per-tile completion state, and a card that dies
// mid-run has its outstanding and undeliverable tiles absorbed by the
// surviving cards or computed host-side (the same two-ended work split as
// host stealing, so re-homing never changes a bit of the result).
#pragma once

#include <cstddef>

#include "tune/knobs.h"
#include "util/matrix.h"

namespace xphi::fault {
class Injector;
}

namespace xphi::tune {
class Tuner;
}

namespace xphi::core {

struct FunctionalOffloadConfig {
  /// Shared knob record (tune/knobs.h) — the same struct the simulated
  /// offload DGEMM uses, so the tile fields exist exactly once:
  /// knobs.mt/.nt size the tile grid and knobs.pack_cache_entries caps the
  /// operand PackCache (0 = derived from the grid).
  tune::Knobs knobs{.mt = 64, .nt = 64};
  /// Optional tuning database: a stored "offload_functional" entry for this
  /// shape bucket overrides the knobs above (tile size and cache capacity
  /// change throughput, never a bit of the result).
  const tune::Tuner* tuner = nullptr;
  int cards = 1;
  bool host_steals = true;
  bool merge_partial_tiles = true;

  /// Fault injection on the DMA queues (Site::kDmaRequest / kDmaResult)
  /// and scripted card deaths. Null = clean run: no checksums, no retry
  /// timeouts, byte-for-byte the original engine behaviour.
  fault::Injector* injector = nullptr;
  /// Bounded retries per tile before the host absorbs it.
  int max_retries = 4;
  /// Base retry timeout; attempt a waits retry_timeout_ms * 2^(a-1) before
  /// a lost transfer is resent (exponential backoff).
  double retry_timeout_ms = 50;
};

struct FunctionalOffloadStats {
  std::size_t tiles_total = 0;
  std::size_t tiles_cards = 0;
  std::size_t tiles_host = 0;
  // Operand-pack reuse: tiles in one grid row share a packed A row-panel,
  // tiles in one grid column share a packed B column-panel (pack cache).
  std::size_t pack_hits = 0;
  std::size_t pack_misses = 0;
  // Reliability protocol (all zero on a clean run):
  std::size_t retries = 0;            // requests resent (timeout or NACK)
  std::size_t checksum_failures = 0;  // corrupted transfers detected
  std::size_t tiles_absorbed = 0;     // card tiles re-homed to the host
  std::size_t cards_lost = 0;         // cards that died mid-run
};

/// C (m x n) += alpha * A (m x k) * B (k x n), executed with the offload
/// structure. Returns per-run statistics.
FunctionalOffloadStats offload_gemm_functional(
    double alpha, util::MatrixView<const double> a,
    util::MatrixView<const double> b, util::MatrixView<double> c,
    const FunctionalOffloadConfig& config = {});

/// The LU stage engine's trailing update (blas/getrf.h) through the offload
/// engine: a22 -= l21 * u.
struct OffloadUpdate {
  const FunctionalOffloadConfig& config;
  void operator()(util::MatrixView<const double> l21,
                  util::MatrixView<const double> u,
                  util::MatrixView<double> a22) const {
    offload_gemm_functional(-1.0, l21, u, a22, config);
  }
};

}  // namespace xphi::core
