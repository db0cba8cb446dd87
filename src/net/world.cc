#include "net/world.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "fault/injector.h"
#include "net/sched.h"

namespace xphi::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Near-equal contiguous split of [0, n) into `parts`; returns chunk i.
std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                 std::size_t parts,
                                                 std::size_t i) {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t lo = i * base + std::min(i, extra);
  return {lo, lo + base + (i < extra ? 1 : 0)};
}

void apply_op(ReduceOp op, double* dst, const double* src, std::size_t n) {
  if (op == ReduceOp::kSum) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
  }
}

int position_in(const std::vector<int>& group, int rank) {
  return static_cast<int>(std::find(group.begin(), group.end(), rank) -
                          group.begin());
}

}  // namespace

struct Request::State {
  World* world = nullptr;
  int owner = 0;  // rank whose task completes this request
  int src = -1;
  int tag = 0;
  bool done = false;
  Payload payload;
};

bool Request::test() {
  assert(state_ != nullptr);
  if (state_->done) return true;
  if (state_->world->try_collect(state_->owner, state_->src, state_->tag,
                                 &state_->payload)) {
    state_->done = true;
  } else {
    // Fairness point: with fewer workers than ranks, a rank spinning on
    // test() would otherwise pin its worker and starve the very peer it is
    // polling for.
    state_->world->cooperative_yield();
  }
  return state_->done;
}

void Request::wait() {
  assert(state_ != nullptr);
  if (state_->done) return;
  state_->payload =
      state_->world->collect(state_->owner, state_->src, state_->tag);
  state_->done = true;
}

Payload Request::take() {
  wait();
  return std::move(state_->payload);
}

World::World(int ranks)
    : ranks_(ranks), stats_(static_cast<std::size_t>(ranks)) {
  assert(ranks >= 1);
  mailboxes_.reserve(ranks_);
  for (int r = 0; r < ranks_; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

World::~World() = default;

int World::workers() const {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int cap = workers_ > 0 ? workers_ : std::max(1, hw);
  return std::min(ranks_, std::max(1, cap));
}

void World::run(const std::function<void(Comm&)>& fn) {
  barrier_count_ = 0;
  barrier_waiting_.clear();
  Sched::Options options;
  options.workers = workers_;
  Sched sched(ranks_, options);
  sched_ = &sched;
  failures_ = std::make_unique<Failure[]>(static_cast<std::size_t>(ranks_));
  // Rank r is task r. Per-rank exceptions (receive-timeout and deadlock
  // diagnostics included) are captured by the scheduler and the first one —
  // by rank index — rethrown once every rank has finished.
  sched.run([this, &fn](int r) {
    Comm comm(this, r);
    try {
      fn(comm);
    } catch (const std::exception& e) {
      note_failure(r, e.what());
      throw;
    } catch (...) {
      note_failure(r, "unknown exception");
      throw;
    }
  });
  sched_ = nullptr;
  for (const auto& e : sched.errors())
    if (e) std::rethrow_exception(e);
}

void World::cooperative_yield() {
  if (sched_ != nullptr) sched_->yield();
}

/// Sender-side fault physics, applied before the mailbox insert (this runs
/// on the sending rank's own task, so stalls genuinely delay that rank —
/// they occupy its worker, exactly as a compute phase would).
void World::apply_send_faults(int src) {
  fault::Injector& inj = *injector_;
  const std::size_t sends = stats_[src].messages_sent;
  if (inj.rank_dies(src, sends)) {
    inj.note_kill(fault::Site::kNetMessage, sends);
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "net: rank %d killed by fault injection after %zu sends",
                  src, sends);
    throw std::runtime_error(msg);
  }
  const double stall_us = inj.rank_stall_us(src);
  if (stall_us > 0)
    inj.sleep_logged(fault::Site::kNetMessage, stall_us * 1e-6);
  switch (inj.next(fault::Site::kNetMessage)) {
    case fault::Action::kDelay:
      inj.sleep_logged(fault::Site::kNetMessage,
                       inj.delay_seconds(fault::Site::kNetMessage));
      break;
    case fault::Action::kDrop:
      // Reliable transport: the wire message is lost and retransmitted, so
      // the drop surfaces as a doubled stall rather than a missing payload.
      inj.sleep_logged(fault::Site::kNetMessage,
                       2 * inj.delay_seconds(fault::Site::kNetMessage));
      break;
    default:
      break;
  }
}

void World::deliver(int src, int dst, int tag, Payload data) {
  assert(dst >= 0 && dst < ranks_);
  if (injector_ != nullptr) apply_send_faults(src);
  CommStats& s = stats_[src];
  s.messages_sent += 1;
  s.bytes_sent += data.size() * sizeof(double);
  Mailbox& box = *mailboxes_[dst];
  bool wake_dst = false;
  {
    std::lock_guard lk(box.mu);
    box.slots[{src, tag}].push(std::move(data));
    box.depth += 1;
    box.high_water = std::max(box.high_water, box.depth);
    if (mailbox_soft_cap_ > 0 && box.depth > mailbox_soft_cap_) {
      box.soft_cap_breaches += 1;
      if (!box.cap_logged) {
        box.cap_logged = true;
        std::fprintf(stderr,
                     "net: warning: rank %d mailbox exceeded soft cap of %zu "
                     "queued messages (depth %zu, src=%d tag=%d)\n",
                     dst, mailbox_soft_cap_, box.depth, src, tag);
      }
    }
    wake_dst = box.waiter_src.load(std::memory_order_relaxed) == src &&
               box.waiter_tag == tag;
  }
  // The wake is race-free even if dst is mid-way into parking: the scheduler
  // latches it and the park returns immediately.
  if (wake_dst) sched_->wake(dst);
}

void World::throw_blocked_diagnostic(int dst, int src, int tag,
                                     bool deadlock) {
  std::size_t depth;
  {
    Mailbox& box = *mailboxes_[dst];
    std::lock_guard lk(box.mu);
    depth = box.depth;
  }
  char msg[224];
  if (deadlock) {
    std::snprintf(msg, sizeof msg,
                  "net: rank %d receive deadlocked waiting on (src=%d, "
                  "tag=%d): every live rank is blocked and no timeout is "
                  "armed; mailbox holds %zu undelivered message(s)",
                  dst, src, tag, depth);
  } else {
    std::snprintf(msg, sizeof msg,
                  "net: rank %d receive timed out after %gs waiting on "
                  "(src=%d, tag=%d); mailbox holds %zu undelivered message(s)",
                  dst, recv_timeout_seconds_, src, tag, depth);
  }
  throw std::runtime_error(msg);
}

/// Marks `rank` failed and wakes every rank parked on a receive from it.
/// The failed store and collect's waiter_src store are both sequentially
/// consistent: either the receiver sees the failure before it parks, or
/// this scan sees the receiver.
void World::note_failure(int rank, std::string error) {
  Failure& f = failures_[static_cast<std::size_t>(rank)];
  f.error = std::move(error);
  f.failed.store(true);
  for (int dst = 0; dst < ranks_; ++dst)
    if (mailboxes_[dst]->waiter_src.load() == rank) sched_->wake(dst);
}

void World::throw_failed_source_diagnostic(int dst, int src, int tag) {
  char msg[128];
  std::snprintf(msg, sizeof msg,
                "net: rank %d receive on (src=%d, tag=%d) cannot complete: "
                "rank %d threw with nothing queued for it: ",
                dst, src, tag, src);
  throw std::runtime_error(msg +
                           failures_[static_cast<std::size_t>(src)].error);
}

Payload World::collect(int dst, int src, int tag) {
  Mailbox& box = *mailboxes_[dst];
  const auto t0 = Clock::now();
  const auto key = std::make_pair(src, tag);
  for (;;) {
    {
      std::unique_lock lk(box.mu);
      const auto it = box.slots.find(key);
      if (it != box.slots.end() && !it->second.empty()) {
        Payload data = std::move(it->second.front());
        it->second.pop();
        box.depth -= 1;
        lk.unlock();
        CommStats& s = stats_[dst];
        s.messages_received += 1;
        s.bytes_received += data.size() * sizeof(double);
        s.wait_seconds += seconds_since(t0);
        return data;
      }
      // Nothing queued: advertise what we are blocked on (only the owner
      // rank ever receives from this mailbox, so one waiter slot suffices)
      // and park. A delivery or a failure of src that lands after the
      // unlock still finds the waiter and its wake is latched by the
      // scheduler.
      box.waiter_tag = tag;
      box.waiter_src.store(src);
      if (failures_[static_cast<std::size_t>(src)].failed.load()) {
        box.waiter_src.store(-1, std::memory_order_relaxed);
        lk.unlock();
        throw_failed_source_diagnostic(dst, src, tag);
      }
    }
    double remaining = 0;
    if (recv_timeout_seconds_ > 0) {
      remaining = recv_timeout_seconds_ - seconds_since(t0);
      if (remaining <= 0) {
        {
          std::lock_guard lk(box.mu);
          box.waiter_src.store(-1, std::memory_order_relaxed);
        }
        throw_blocked_diagnostic(dst, src, tag, /*deadlock=*/false);
      }
    }
    const Sched::Wake why = sched_->park(remaining);
    {
      std::lock_guard lk(box.mu);
      box.waiter_src.store(-1, std::memory_order_relaxed);
      const auto it = box.slots.find(key);
      if (it != box.slots.end() && !it->second.empty()) continue;  // re-scan
    }
    // Woken without a matching message. A signal can be spurious (e.g. two
    // deliveries latched one extra wake) — just re-scan. Timeout and
    // deadlock are terminal: nothing matched, so diagnose.
    if (why == Sched::Wake::kTimeout)
      throw_blocked_diagnostic(dst, src, tag, /*deadlock=*/false);
    if (why == Sched::Wake::kDeadlock)
      throw_blocked_diagnostic(dst, src, tag, /*deadlock=*/true);
  }
}

bool World::try_collect(int dst, int src, int tag, Payload* out) {
  Mailbox& box = *mailboxes_[dst];
  {
    std::lock_guard lk(box.mu);
    const auto it = box.slots.find({src, tag});
    if (it == box.slots.end() || it->second.empty()) return false;
    *out = std::move(it->second.front());
    it->second.pop();
    box.depth -= 1;
  }
  CommStats& s = stats_[dst];
  s.messages_received += 1;
  s.bytes_received += out->size() * sizeof(double);
  return true;
}

std::size_t World::mailbox_high_water(int rank) const {
  const Mailbox& box = *mailboxes_[rank];
  std::lock_guard lk(box.mu);
  return box.high_water;
}

CommStats World::stats(int rank) const {
  CommStats s = stats_[rank];
  const Mailbox& box = *mailboxes_[rank];
  std::lock_guard lk(box.mu);
  s.mailbox_high_water = box.high_water;
  s.soft_cap_breaches = box.soft_cap_breaches;
  return s;
}

int Comm::size() const noexcept { return world_->size(); }

void Comm::send(int dst, int tag, Payload data) {
  world_->deliver(rank_, dst, tag, std::move(data));
}

Payload Comm::recv(int src, int tag) { return world_->collect(rank_, src, tag); }

Request Comm::isend(int dst, int tag, Payload data) {
  world_->deliver(rank_, dst, tag, std::move(data));
  Request req;
  req.state_ = std::make_shared<Request::State>();
  req.state_->world = world_;
  req.state_->owner = rank_;
  req.state_->done = true;  // buffered: completes at once
  return req;
}

Request Comm::irecv(int src, int tag) {
  Request req;
  req.state_ = std::make_shared<Request::State>();
  req.state_->world = world_;
  req.state_->owner = rank_;
  req.state_->src = src;
  req.state_->tag = tag;
  return req;
}

Payload Comm::bcast(int root, const std::vector<int>& group, Payload data,
                    int tag) {
  // Binomial tree over the positions within `group`.
  const int n = static_cast<int>(group.size());
  const int root_pos = position_in(group, root);
  const int my_pos = position_in(group, rank_);
  assert(root_pos < n && my_pos < n);
  // Virtual position relative to the root.
  const int vpos = (my_pos - root_pos + n) % n;
  int first_send_mask = 1;
  if (vpos != 0) {
    // Receive from the parent: vpos with its highest set bit cleared.
    int hb = 1;
    while (hb <= vpos) hb <<= 1;
    hb >>= 1;
    const int parent = group[(vpos - hb + root_pos) % n];
    data = recv(parent, tag);
    first_send_mask = hb << 1;
  }
  // Forward to children at vpos + mask for each mask above our highest bit.
  for (int mask = first_send_mask; mask < n + n; mask <<= 1) {
    const int child_v = vpos + mask;
    if (child_v >= n) break;
    send(group[(child_v + root_pos) % n], tag, data);
  }
  return data;
}

Payload Comm::ring_bcast(int root, const std::vector<int>& group, Payload data,
                         int tag, std::size_t segment_doubles) {
  const int n = static_cast<int>(group.size());
  if (n <= 1) return data;
  const int root_pos = position_in(group, root);
  const int my_pos = position_in(group, rank_);
  assert(root_pos < n && my_pos < n);
  const int vpos = (my_pos - root_pos + n) % n;
  const int succ = group[(my_pos + 1) % n];
  const int pred = group[(my_pos - 1 + n) % n];
  const bool last = vpos == n - 1;
  if (vpos == 0) {
    const std::size_t total = data.size();
    const std::size_t seg =
        segment_doubles == 0 ? std::max<std::size_t>(total, 1)
                             : segment_doubles;
    // Header first (receivers learn the length), then the pipelined chunks.
    send(succ, tag,
         {static_cast<double>(total), static_cast<double>(seg)});
    for (std::size_t off = 0; off < total; off += seg) {
      const std::size_t hi = std::min(off + seg, total);
      send(succ, tag, Payload(data.begin() + off, data.begin() + hi));
    }
    return data;
  }
  const Payload header = recv(pred, tag);
  if (!last) send(succ, tag, header);
  const std::size_t total = static_cast<std::size_t>(header[0]);
  const std::size_t seg = static_cast<std::size_t>(header[1]);
  Payload out;
  out.reserve(total);
  for (std::size_t off = 0; off < total; off += seg) {
    Payload chunk = recv(pred, tag);
    if (!last) send(succ, tag, chunk);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

Payload Comm::bcast_auto(int root, const std::vector<int>& group, Payload data,
                         int tag, std::size_t size_hint_doubles) {
  // A 2-rank "ring" is a single hop with extra header traffic, so the ring
  // only ever wins for groups that can actually pipeline. Both algorithms
  // move identical bytes, so the dispatch is bitwise-invisible to callers.
  const bool use_ring = group.size() >= 3 &&
                        size_hint_doubles > world_->crossover_doubles_;
  CommStats& s = world_->stats_[rank_];
  if (use_ring) {
    s.ring_collectives += 1;
    return ring_bcast(root, group, std::move(data), tag,
                      world_->ring_segment_doubles_);
  }
  s.tree_collectives += 1;
  return bcast(root, group, std::move(data), tag);
}

Payload Comm::reduce(int root, const std::vector<int>& group, Payload data,
                     int tag, ReduceOp op) {
  // Binomial tree: mirror image of bcast(). Non-root ranks send their
  // partial up once and return an empty payload; the root accumulates its
  // children in fixed mask order (1, 2, 4, ...), so the kSum order is
  // deterministic for a given group.
  const int n = static_cast<int>(group.size());
  const int root_pos = position_in(group, root);
  const int my_pos = position_in(group, rank_);
  assert(root_pos < n && my_pos < n);
  const int vpos = (my_pos - root_pos + n) % n;
  for (int mask = 1; mask < n + n; mask <<= 1) {
    if (vpos & mask) {
      const int parent_v = vpos - mask;
      send(group[(parent_v + root_pos) % n], tag, std::move(data));
      return Payload();
    }
    const int child_v = vpos + mask;
    if (child_v < n) {
      const Payload in = recv(group[(child_v + root_pos) % n], tag);
      assert(in.size() == data.size());
      apply_op(op, data.data(), in.data(), in.size());
    }
    if (mask >= n) break;
  }
  return data;
}

Payload Comm::allreduce(const std::vector<int>& group, Payload data, int tag,
                        ReduceOp op) {
  const std::size_t g = group.size();
  if (g <= 1) return data;
  const std::size_t pos = static_cast<std::size_t>(position_in(group, rank_));
  assert(pos < g);
  const int next = group[(pos + 1) % g];
  const int prev = group[(pos + g - 1) % g];
  const std::size_t n = data.size();
  // Ring reduce-scatter: after g-1 steps, position i holds the fully
  // reduced chunk (i+1) mod g.
  for (std::size_t s = 0; s + 1 < g; ++s) {
    const std::size_t sc = (pos + g - s) % g;
    const std::size_t rc = (pos + 2 * g - s - 1) % g;
    const auto [slo, shi] = chunk_bounds(n, g, sc);
    send(next, tag, Payload(data.begin() + slo, data.begin() + shi));
    const Payload in = recv(prev, tag);
    const auto [rlo, rhi] = chunk_bounds(n, g, rc);
    assert(in.size() == rhi - rlo);
    apply_op(op, data.data() + rlo, in.data(), rhi - rlo);
  }
  // Ring allgather of the reduced chunks.
  for (std::size_t s = 0; s + 1 < g; ++s) {
    const std::size_t sc = (pos + g + 1 - s) % g;
    const std::size_t rc = (pos + g - s) % g;
    const auto [slo, shi] = chunk_bounds(n, g, sc);
    send(next, tag, Payload(data.begin() + slo, data.begin() + shi));
    const Payload in = recv(prev, tag);
    const auto [rlo, rhi] = chunk_bounds(n, g, rc);
    assert(in.size() == rhi - rlo);
    std::copy(in.begin(), in.end(), data.begin() + rlo);
  }
  return data;
}

Payload Comm::reduce_scatter(const std::vector<int>& group, Payload data,
                             int tag, ReduceOp op) {
  const std::size_t g = group.size();
  if (g <= 1) return data;
  const std::size_t pos = static_cast<std::size_t>(position_in(group, rank_));
  assert(pos < g);
  const int next = group[(pos + 1) % g];
  const int prev = group[(pos + g - 1) % g];
  const std::size_t n = data.size();
  // Same ring schedule as allreduce's first phase, but with every position
  // rotated back by one so the fully reduced chunk a rank ends up holding
  // is its own group position.
  const std::size_t vp = (pos + g - 1) % g;
  for (std::size_t s = 0; s + 1 < g; ++s) {
    const std::size_t sc = (vp + g - s) % g;
    const std::size_t rc = (vp + 2 * g - s - 1) % g;
    const auto [slo, shi] = chunk_bounds(n, g, sc);
    send(next, tag, Payload(data.begin() + slo, data.begin() + shi));
    const Payload in = recv(prev, tag);
    const auto [rlo, rhi] = chunk_bounds(n, g, rc);
    assert(in.size() == rhi - rlo);
    apply_op(op, data.data() + rlo, in.data(), rhi - rlo);
  }
  const auto [lo, hi] = chunk_bounds(n, g, pos);
  return Payload(data.begin() + lo, data.begin() + hi);
}

void Comm::barrier() {
  World& w = *world_;
  if (w.ranks_ <= 1) return;
  std::uint64_t gen;
  {
    std::lock_guard lk(w.barrier_mu_);
    gen = w.barrier_generation_;
    if (++w.barrier_count_ == static_cast<std::size_t>(w.ranks_)) {
      // Last arrival releases the generation. Waiters that registered but
      // have not parked yet get their wake latched by the scheduler.
      w.barrier_count_ = 0;
      ++w.barrier_generation_;
      const std::vector<int> waiting = std::move(w.barrier_waiting_);
      w.barrier_waiting_.clear();
      for (const int r : waiting) w.sched_->wake(r);
      return;
    }
    w.barrier_waiting_.push_back(rank_);
  }
  const auto t0 = Clock::now();
  for (;;) {
    {
      std::lock_guard lk(w.barrier_mu_);
      if (w.barrier_generation_ != gen) break;
    }
    const Sched::Wake why = w.sched_->park(0);
    if (why == Sched::Wake::kDeadlock) {
      std::size_t arrived;
      {
        std::lock_guard lk(w.barrier_mu_);
        if (w.barrier_generation_ != gen) break;
        arrived = w.barrier_count_;
      }
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "net: rank %d deadlocked at barrier: %zu of %d ranks "
                    "arrived and every live rank is blocked",
                    rank_, arrived, w.ranks_);
      throw std::runtime_error(msg);
    }
  }
  w.stats_[rank_].wait_seconds += seconds_since(t0);
}

CommStats Comm::stats() const { return world_->stats(rank_); }

}  // namespace xphi::net
