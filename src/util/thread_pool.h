// Minimal work-sharing thread pool for the functional (real-numerics) paths.
//
// The simulated paths never use host threads — they run on virtual clocks —
// but the functional GEMM/LU executors need real shared-memory parallelism to
// validate that the paper's scheduling protocols (DAG array, master-thread
// task acquisition, work stealing) are race-free. The pool is deliberately
// simple: persistent workers, a parallel_for, and a run_on_all that hands
// each worker its index (the LU executors build the paper's thread-group
// structure on top of that).
//
// parallel_for is *dynamically scheduled*: participants claim chunks of
// `grain` consecutive indices from a shared atomic counter, so ragged edge
// tiles and heterogeneous task costs do not serialize on the slowest static
// block (the same reason the paper's LU scheduler moved from static
// look-ahead to dynamic DAG scheduling, Section IV). Tiny index counts fall
// back to the contiguous block split, which has no claiming traffic at all.
// Dispatch passes a raw function pointer + context to the workers instead of
// re-wrapping the body in a fresh std::function (no per-call allocation).
//
// Handoff: a dispatch publishes (fn, ctx) and bumps a 32-bit atomic epoch;
// each worker runs the job and decrements a 32-bit atomic pending count.
// Workers waiting for the next epoch, and the caller waiting for pending to
// reach zero, first spin for a fixed window (kSpinWindow) with a pause
// instruction — yielding between pause bursts, so an oversubscribed core
// runs the thread that holds the work — then park on std::atomic::wait, a
// direct futex for 4-byte types. Wakers call notify_all only when someone is parked, so a dispatch
// that lands inside the window makes no syscall at all. The blocked LU's
// panel makes thousands of small dispatches per factorization (a pooled
// iamax and rank-1 update per leaf column) back to back on its critical
// path — the paper's reason for cheap intra-group barriers (Section IV).
// A mutex + condition-variable handoff cost 18-20 us per 4-index dispatch
// on a 4-vCPU AVX-512 Xeon; the spinning handoff costs 1.2-1.3 us there.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace xphi::util {

class ThreadPool {
 public:
  /// Creates `threads` persistent workers (>= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, count) across all workers plus the calling
  /// thread; blocks until complete. Indices are claimed dynamically in chunks
  /// of `grain` (0 = pick a grain from count and pool width); counts too
  /// small to amortize the claiming traffic use a static block split.
  template <class Body>
  void parallel_for(std::size_t count, Body&& body, std::size_t grain = 0) {
    if (count == 0) return;
    const std::size_t participants = size() + 1;
    if (count == 1) {
      body(0);
      return;
    }
    using BodyT = std::remove_reference_t<Body>;
    // Static block split when each participant gets at most ~2 indices:
    // dynamic claiming can't beat one contiguous block per thread there.
    const bool dynamic = count > 2 * participants;
    if (grain == 0) {
      grain = dynamic ? std::max<std::size_t>(1, count / (4 * participants)) : 1;
    }
    struct State {
      BodyT* body;
      std::atomic<std::size_t> next;
      std::size_t count, grain, block;
      bool dynamic;
    } st{&body, {0}, count, grain,
         (count + participants - 1) / participants, dynamic};
    dispatch(
        [](void* ctx, std::size_t part) {
          auto* s = static_cast<State*>(ctx);
          if (s->dynamic) {
            for (;;) {
              const std::size_t lo =
                  s->next.fetch_add(s->grain, std::memory_order_relaxed);
              if (lo >= s->count) return;
              const std::size_t hi = std::min(s->count, lo + s->grain);
              for (std::size_t i = lo; i < hi; ++i) (*s->body)(i);
            }
          } else {
            const std::size_t lo = std::min(s->count, part * s->block);
            const std::size_t hi = std::min(s->count, lo + s->block);
            for (std::size_t i = lo; i < hi; ++i) (*s->body)(i);
          }
        },
        &st, /*include_caller=*/true);
  }

  /// Runs body(worker_index) once on every worker. Blocks until complete.
  void run_on_all(const std::function<void(std::size_t)>& body);

  /// Runs body(participant) once on every worker (participant = worker
  /// index) and once on the calling thread (participant == size()), all
  /// concurrently; blocks until every call returns. Lets a client give the
  /// caller its own role beside the workers' (the offload engine's host
  /// pack/DMA participant beside its card participants).
  template <class Body>
  void run_with_caller(Body&& body) {
    using BodyT = std::remove_reference_t<Body>;
    dispatch(
        [](void* ctx, std::size_t part) { (*static_cast<BodyT*>(ctx))(part); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        /*include_caller=*/true);
  }

 private:
  /// Raw dispatch primitive: runs fn(ctx, participant) on every worker
  /// (participant = worker index) and, if include_caller, on the calling
  /// thread with participant == size(). Blocks until all are done; `ctx`
  /// only needs to outlive the call. A null fn tells the workers to exit.
  using RawFn = void (*)(void* ctx, std::size_t participant);
  void dispatch(RawFn fn, void* ctx, bool include_caller);
  void publish(RawFn fn, void* ctx);

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  // Written by the dispatching thread before the epoch bump (release), read
  // by workers after observing it (acquire).
  RawFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> pending_{0};
  // Threads currently parked on epoch_ (workers) / pending_ (the caller).
  std::atomic<std::uint32_t> parked_workers_{0};
  std::atomic<std::uint32_t> parked_caller_{0};
};

}  // namespace xphi::util
