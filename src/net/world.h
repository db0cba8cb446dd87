// In-process message-passing substrate (the MPI stand-in for functional
// multi-node tests).
//
// The distributed HPL in hpl/distributed.h runs its ranks through this World
// — tagged point-to-point sends and receives with (source, tag) matching,
// plus a barrier — mirroring the subset of MPI the real HPL uses. No shared
// state crosses rank boundaries except through messages, so the functional
// tests genuinely exercise the distribution logic.
//
// Engine: ranks are NOT OS threads. Each rank is a resumable coroutine task
// multiplexed over a bounded worker pool (net/sched.h), so a World(1024)
// costs 1024 guard-paged lazily-committed stacks and mailbox structs — not
// 1024 kernel threads — and OS thread count stays at
// min(ranks, hardware_concurrency) unless set_workers() overrides it. A
// rank blocked in recv/wait/barrier parks its task and frees the worker;
// message delivery wakes it. The blocking semantics, FIFO-per-(src, tag)
// ordering, CommStats accounting, timeout diagnostics, soft caps and fault
// injection of the thread-per-rank engine are preserved (the conformance
// suite in tests/net/conformance_test.cc pins them), with one upgrade: a
// provably wedged World (every live rank parked, no timeout armed) now
// raises a deadlock diagnostic in each blocked rank instead of hanging.
//
// On top of the blocking primitives sits a nonblocking layer (isend/irecv
// returning waitable Request handles) and the collective family:
//   - bcast:          binomial tree (latency-optimal for short messages);
//   - ring_bcast:     segmented ring that pipelines long messages in
//                     fixed-size chunks (bandwidth-optimal; the functional
//                     twin of HPL's "increasing ring" panel broadcast);
//   - bcast_auto:     size-adaptive dispatch between the two: payloads over
//                     the World's crossover go through the segmented ring
//                     when the group is big enough to pipeline, everything
//                     else through the tree. All ranks must pass the same
//                     size hint (collective choices must agree group-wide
//                     without extra wire traffic). bench_tune sweeps the
//                     crossover and ring segment (tune::spaces::net()).
//   - reduce:         binomial-tree reduction to a root (O(log P) messages
//                     — the small-message complement of the ring family).
//   - allreduce /     ring reduce-scatter (+ ring allgather), element-wise
//     reduce_scatter: sum or max. Deliberately NOT size-adaptive: the ring
//                     schedule pins the floating-point reduction order, and
//                     bitwise reproducibility outranks latency here.
// Every rank's traffic is metered (bytes, message counts, blocked-wait
// time, mailbox high-water mark, tree/ring collective dispatch counts) so
// benches can report communication exposure.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

namespace xphi::fault {
class Injector;
}

namespace xphi::net {

using Payload = std::vector<double>;

class Sched;
class World;

/// Element-wise reduction operators for allreduce / reduce_scatter.
enum class ReduceOp { kSum, kMax };

/// Per-rank communication counters. A rank's own counters may be read from
/// its own task at any time (Comm::stats()); cross-rank reads are only
/// well-defined after World::run returns.
struct CommStats {
  std::size_t messages_sent = 0;
  std::size_t messages_received = 0;
  std::size_t bytes_sent = 0;      // payload bytes (doubles * 8)
  std::size_t bytes_received = 0;
  double wait_seconds = 0;         // time blocked in recv / Request::wait
  std::size_t mailbox_high_water = 0;  // max messages ever queued at once
  std::size_t soft_cap_breaches = 0;   // deliveries past the soft cap
  std::size_t tree_collectives = 0;  // bcast_auto calls dispatched to the tree
  std::size_t ring_collectives = 0;  // ... and to the segmented ring
};

/// Waitable handle for a nonblocking operation. isend requests complete
/// immediately (mailboxes buffer the payload, like MPI_Ibsend); irecv
/// requests complete when a matching message is available. Copyable —
/// copies share completion state. test() doubles as a cooperative yield
/// point: a failed probe reschedules the polling rank behind its peers, so
/// a spin-on-test loop cannot starve the ranks it is waiting on.
class Request {
 public:
  Request() = default;

  bool valid() const noexcept { return state_ != nullptr; }

  /// Nonblocking completion probe; consumes the matching message if one is
  /// already queued. A failed probe yields the calling rank's task.
  bool test();

  /// Blocks until complete (honours the World's receive timeout).
  void wait();

  /// wait() + moves the received payload out (empty for send requests).
  Payload take();

 private:
  friend class Comm;
  struct State;
  std::shared_ptr<State> state_;
};

/// Per-rank communication endpoint handed to each rank function.
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Sends `data` to `dst` with a tag. Never blocks (unbounded mailboxes).
  void send(int dst, int tag, Payload data);

  /// Blocks until a message with (src, tag) arrives. Throws
  /// std::runtime_error naming the blocked rank/tag if the World's receive
  /// timeout (if set) expires first — or immediately, with a deadlock
  /// diagnostic, if the scheduler proves no peer can ever send it, or with
  /// src's own error once src has thrown with nothing queued.
  Payload recv(int src, int tag);

  /// Nonblocking send: the payload is buffered at the destination
  /// immediately, so the returned Request is already complete.
  Request isend(int dst, int tag, Payload data);

  /// Posts a nonblocking receive for (src, tag); match happens at
  /// test()/wait() time. FIFO order per (src, tag) is preserved across
  /// mixed recv/irecv use in posting order only if waits are issued in
  /// posting order.
  Request irecv(int src, int tag);

  /// Binomial-tree broadcast within the ranks listed in `group` (all of
  /// which must call with identical arguments); `root` is a rank id that
  /// must appear in `group`. Returns the broadcast payload.
  Payload bcast(int root, const std::vector<int>& group, Payload data, int tag);

  /// Segmented ring broadcast: the payload travels around `group` in ring
  /// order starting at `root`, split into chunks of `segment_doubles`
  /// elements (0 = single chunk). Each rank forwards a chunk as soon as it
  /// arrives, so long messages pipeline across the ring instead of
  /// serializing hop-by-hop. Payload-equal to bcast().
  Payload ring_bcast(int root, const std::vector<int>& group, Payload data,
                     int tag, std::size_t segment_doubles = 0);

  /// Size-adaptive broadcast: dispatches to ring_bcast (segment = the
  /// World's ring segment) when `size_hint_doubles` exceeds the World's
  /// crossover AND the group has >= 3 ranks (a 2-rank ring cannot
  /// pipeline), otherwise to the binomial tree. `size_hint_doubles` is the
  /// broadcast payload length and MUST be identical on every rank of the
  /// group — receivers do not yet hold the payload, and the algorithm
  /// choice must agree group-wide without extra wire traffic. Callers
  /// always know it (HPL's packet sizes are functions of the stage).
  /// Payload-equal to bcast()/ring_bcast().
  Payload bcast_auto(int root, const std::vector<int>& group, Payload data,
                     int tag, std::size_t size_hint_doubles);

  /// Binomial-tree reduction to `root` over `group`: O(log group) messages
  /// per rank. All ranks pass equal-length vectors; `root` returns the
  /// element-wise reduction, everyone else an empty payload. NOTE:
  /// the tree changes the kSum accumulation order vs the ring allreduce —
  /// use where the consumer tolerates summation-order differences (max is
  /// exact either way).
  Payload reduce(int root, const std::vector<int>& group, Payload data,
                 int tag, ReduceOp op = ReduceOp::kSum);

  /// Ring allreduce (reduce-scatter + allgather) over `group`. All ranks
  /// must pass equal-length vectors; every rank returns the element-wise
  /// reduction.
  Payload allreduce(const std::vector<int>& group, Payload data, int tag,
                    ReduceOp op = ReduceOp::kSum);

  /// Ring reduce-scatter over `group`: returns this rank's chunk of the
  /// element-wise reduction, where chunk i (near-equal contiguous split
  /// into group.size() parts) goes to the rank at position i of `group`.
  Payload reduce_scatter(const std::vector<int>& group, Payload data, int tag,
                         ReduceOp op = ReduceOp::kSum);

  /// Global barrier over all ranks.
  void barrier();

  /// This rank's traffic counters (snapshot).
  CommStats stats() const;

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
};

class World {
 public:
  explicit World(int ranks);
  ~World();

  int size() const noexcept { return ranks_; }

  /// Runs fn(comm) once per rank as coroutine tasks over the worker pool;
  /// returns when all ranks finish. If a rank throws, the first exception
  /// (by rank index) is rethrown here after all ranks complete. A receive
  /// from a rank that has thrown, with nothing queued from it, fails at
  /// once, and its message carries that rank's error; so the exception
  /// rethrown here names the first failure even when a lower rank was
  /// waiting on it. Ranks blocked on a rank that returned unblock through
  /// the receive timeout, or through the scheduler's deadlock detection
  /// when no timeout is set.
  void run(const std::function<void(Comm&)>& fn);

  /// Receive timeout in seconds (0 = wait forever, the default). A recv or
  /// Request::wait that exceeds it throws std::runtime_error naming the
  /// blocked rank and the (src, tag) it was waiting on. Does not cover
  /// barrier(). Set before run().
  void set_recv_timeout(double seconds) { recv_timeout_seconds_ = seconds; }

  /// Soft cap on queued messages per rank mailbox (0 = off). Exceeding it
  /// logs one warning per rank to stderr and counts the breach — it never
  /// aborts — so runaway-pipelining bugs surface in tests.
  void set_mailbox_soft_cap(std::size_t max_queued) {
    mailbox_soft_cap_ = max_queued;
  }

  /// Worker OS threads the scheduler multiplexes rank tasks over (the
  /// calling thread counts as one). 0 = automatic:
  /// min(ranks, hardware_concurrency). Set before run().
  void set_workers(int workers) { workers_ = workers; }

  /// Worker threads the next run() will use (resolved value).
  int workers() const;

  /// bcast_auto crossover: size hints strictly greater than this (in
  /// doubles) dispatch to the segmented ring when the group can pipeline.
  /// Default 1024 doubles (8 KiB). SIZE_MAX = always tree, 0 = always ring
  /// (for groups >= 3). Swept as "net_crossover_doubles" by bench_tune.
  void set_collective_crossover_doubles(std::size_t doubles) {
    crossover_doubles_ = doubles;
  }

  /// Segment (in doubles) bcast_auto hands to ring_bcast (default 1024).
  /// Swept as "net_ring_segment" by bench_tune.
  void set_ring_segment_doubles(std::size_t doubles) {
    ring_segment_doubles_ = doubles;
  }

  /// Arms deterministic fault injection on message delivery (set before
  /// run()). Per-message faults from the Site::kNetMessage stream: kDelay
  /// stalls the sender by the configured latency; kDrop models a reliable
  /// transport losing the wire message and retransmitting — a doubled
  /// stall, never a lost payload (the rank protocol has no retransmit of
  /// its own, so an unreliable drop would just be the recv-timeout
  /// diagnostic). Scripted scenarios ride along: the configured slow rank
  /// stalls before every send, and the configured dead rank throws at its
  /// Nth send — peers then surface the loss through set_recv_timeout or
  /// the deadlock diagnostic.
  void set_fault_injector(fault::Injector* injector) { injector_ = injector; }

  /// Maximum number of messages ever queued at once in `rank`'s mailbox.
  std::size_t mailbox_high_water(int rank) const;

  /// Traffic counters for `rank`, including mailbox high-water mark.
  /// Well-defined after run() returns (or from the rank's own task).
  CommStats stats(int rank) const;

 private:
  friend class Comm;
  friend class Request;

  struct Mailbox {
    mutable std::mutex mu;
    std::map<std::pair<int, int>, std::queue<Payload>> slots;  // (src, tag)
    std::size_t depth = 0;       // total queued messages
    std::size_t high_water = 0;
    std::size_t soft_cap_breaches = 0;
    bool cap_logged = false;
    // The owning rank's parked receive, if any (a rank waits on at most one
    // (src, tag) at a time); waiter_src is -1 when there is none. Senders
    // wake the task on a match. A failing rank reads waiter_src without
    // the lock (see note_failure).
    std::atomic<int> waiter_src{-1};
    int waiter_tag = 0;
  };

  // A rank's exception, if its task threw: `error` is written before
  // `failed` is set and never changes after.
  struct Failure {
    std::atomic<bool> failed{false};
    std::string error;
  };

  void deliver(int src, int dst, int tag, Payload data);
  Payload collect(int dst, int src, int tag);
  bool try_collect(int dst, int src, int tag, Payload* out);
  void apply_send_faults(int src);
  void cooperative_yield();
  [[noreturn]] void throw_blocked_diagnostic(int dst, int src, int tag,
                                             bool deadlock);
  void note_failure(int rank, std::string error);
  [[noreturn]] void throw_failed_source_diagnostic(int dst, int src, int tag);

  int ranks_;
  double recv_timeout_seconds_ = 0;
  std::size_t mailbox_soft_cap_ = 0;
  int workers_ = 0;  // 0 = automatic
  std::size_t crossover_doubles_ = 1024;
  std::size_t ring_segment_doubles_ = 1024;
  fault::Injector* injector_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  // Indexed by rank; slot r is only written while rank r's task runs
  // (senders account bytes on their own slot), so no locking is needed:
  // task migration across workers synchronizes through the scheduler.
  std::vector<CommStats> stats_;
  // Cooperative barrier over all ranks (replaces the old SpinBarrier, which
  // would wedge a pool smaller than the rank count).
  std::mutex barrier_mu_;
  std::size_t barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::vector<int> barrier_waiting_;
  // Live only inside run().
  Sched* sched_ = nullptr;
  std::unique_ptr<Failure[]> failures_;
};

}  // namespace xphi::net
