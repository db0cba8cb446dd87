// Functional (real-numerics) twin of offload DGEMM.
//
// Mirrors Figure 10b with host threads standing in for the coprocessor(s).
// An OffloadEngine is built once per factorization and keeps its participants
// resident in one util::ThreadPool, the way the paper keeps its card-side
// workers resident behind the request/response queues (Section V). Each
// call is one pool dispatch:
//   - the caller plays the host pack/DMA cores: it steals tiles from the
//     front, packs their operands into Knights Corner tile format, enqueues
//     requests and runs the reliability loop;
//   - the pool workers are card participants, split across the cards. Any
//     participant of a card dequeues a request, runs the tiled GEMM kernel
//     on the packed operands into a product buffer it reuses ("device
//     memory"), enqueues the result, and then folds whatever results are
//     queued back into C, so every card participant shares the fold;
//   - with host_steals, one worker first steals tiles from the opposite
//     corner and computes them in place, then joins its card.
// A call may also hand one card participant a task of its own to run first
// (the hybrid LU's look-ahead panel, blas/getrf.h); the participant then
// joins its card, and the other participants keep serving meanwhile.
// Tests validate the result against the reference GEMM, that every tile is
// processed exactly once, and that partial-tile merging covers ragged
// shapes.
//
// With a fault::Injector attached the link becomes unreliable and the
// engine runs a reliability protocol over it: every request/result carries
// an FNV checksum of its payload, a corrupted transfer is NACKed or
// discarded and resent with bounded retries and exponential backoff, a
// vanished transfer is recovered by a retry timeout, duplicated transfers
// are deduplicated by per-tile completion state, and a card that dies
// mid-call has its outstanding and undeliverable tiles absorbed by the
// surviving cards or computed host-side (the same two-ended work split as
// host stealing, so re-homing never changes a bit of the result). A card's
// death is scripted per call: every call starts with all cards alive and
// counts each card's dequeued requests from zero.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "tune/knobs.h"
#include "util/matrix.h"

namespace xphi::fault {
class Injector;
}

namespace xphi::util {
class ThreadPool;
}

namespace xphi::core {

struct FunctionalOffloadConfig {
  /// Shared knob record (tune/knobs.h) — the same struct the simulated
  /// offload DGEMM uses, so the tile fields exist exactly once:
  /// knobs.mt/.nt size the tile grid, knobs.pack_cache_entries caps the
  /// operand PackCache (0 = derived from the grid), and knobs.microkernel /
  /// .gemm_mc / .gemm_nc pick the tile kernel and its cache blocking (0 =
  /// auto-dispatch / unbounded).
  tune::Knobs knobs{.mt = 64, .nt = 64};
  int cards = 1;
  bool host_steals = true;

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

/// Resident offload participants: one pool of max(cards,
/// hardware_concurrency - 1) workers plus the calling thread, and the
/// workers' product buffers, reused by every call. One caller at a time (a
/// ThreadPool has one dispatcher); calls from different threads need
/// different engines.
class OffloadEngine {
 public:
  /// Starts the workers. Throws std::invalid_argument if config.cards < 1.
  explicit OffloadEngine(const FunctionalOffloadConfig& config);
  ~OffloadEngine();

  OffloadEngine(const OffloadEngine&) = delete;
  OffloadEngine& operator=(const OffloadEngine&) = delete;

  /// C (m x n) += alpha * A (m x k) * B (k x n), executed with the offload
  /// structure. Returns per-call statistics.
  FunctionalOffloadStats gemm(double alpha, util::MatrixView<const double> a,
                              util::MatrixView<const double> b,
                              util::MatrixView<double> c);

  /// The same product while worker 0, a card participant, first runs
  /// `beside` and then joins its card. `beside` must touch neither A, B
  /// nor C. A throw from it is rethrown once every participant has joined.
  FunctionalOffloadStats gemm(double alpha, util::MatrixView<const double> a,
                              util::MatrixView<const double> b,
                              util::MatrixView<double> c,
                              const std::function<void()>& beside);

  /// Pool workers started by this engine (the caller is not counted).
  std::size_t workers() const noexcept;

  /// The engine's resident pool. Between calls the caller may dispatch its
  /// own work on it (the hybrid LU's panel, swaps and TRSM).
  util::ThreadPool& pool() noexcept;

 private:
  struct Resident;
  OffloadEngine(const FunctionalOffloadConfig& config, std::size_t workers);
  friend FunctionalOffloadStats offload_gemm_functional(
      double, util::MatrixView<const double>, util::MatrixView<const double>,
      util::MatrixView<double>, const FunctionalOffloadConfig&);

  FunctionalOffloadConfig config_;
  std::unique_ptr<Resident> resident_;
};

/// One-shot engine: builds an OffloadEngine for this call alone (with no
/// more workers than the call has tiles to share out), runs it once and
/// tears it down.
FunctionalOffloadStats offload_gemm_functional(
    double alpha, util::MatrixView<const double> a,
    util::MatrixView<const double> b, util::MatrixView<double> c,
    const FunctionalOffloadConfig& config = {});

/// The LU stage engine's trailing update (blas/getrf.h) through a resident
/// offload engine: a22 -= l21 * u. Every stage of a factorization reuses
/// the same engine. The four-argument form is the look-ahead's: the update
/// runs beside a panel task (getrf_stages, on engine.pool()).
struct OffloadUpdate {
  OffloadEngine& engine;
  void operator()(util::MatrixView<const double> l21,
                  util::MatrixView<const double> u,
                  util::MatrixView<double> a22) const {
    engine.gemm(-1.0, l21, u, a22);
  }
  void operator()(util::MatrixView<const double> l21,
                  util::MatrixView<const double> u,
                  util::MatrixView<double> a22,
                  const std::function<void()>& beside) const {
    engine.gemm(-1.0, l21, u, a22, beside);
  }
};

}  // namespace xphi::core
