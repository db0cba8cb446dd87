// Engine-conformance suite for the event-driven net::World.
//
// The cooperative-scheduler rewrite must be observably identical to the
// thread-per-rank engine it replaced. These tests pin the observable
// surface with seeded random-traffic property scripts (ragged payload
// sizes, tag collisions, self-sends, mixed blocking/nonblocking receives):
// the script is a pure function of its seed, so every rank can compute the
// exact byte-for-byte expectation of what it must receive and in which
// order (FIFO per (src, tag)), and the same script replayed three times
// must produce bitwise-identical payloads and identical
// schedule-independent CommStats.
//
// The collective family is pinned the same way: bcast_auto under the two
// forced dispatch extremes (always-tree vs always-ring) must move
// bit-identical payloads, the dispatched choice must match the crossover
// knob exactly (counted by the tree_collectives/ring_collectives stats).
//
// Finally, the scale contract: a 1024-rank World completes the traffic
// script with OS threads bounded by hardware concurrency, not O(P).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/world.h"

namespace {

using xphi::net::Comm;
using xphi::net::CommStats;
using xphi::net::Payload;
using xphi::net::ReduceOp;
using xphi::net::Request;
using xphi::net::World;

// --- deterministic script machinery ----------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Bitwise-reproducible payload: element j is a pure function of (tag_seed, j).
Payload scripted_payload(std::uint64_t tag_seed, std::size_t len) {
  Payload p(len);
  std::uint64_t s = tag_seed;
  for (std::size_t j = 0; j < len; ++j)
    p[j] = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  return p;
}

struct SendOp {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t len = 0;
  std::uint64_t val_seed = 0;
  bool nonblocking = false;  // deliver via isend instead of send
};

/// The whole point-to-point script is derived from (seed, ranks, rounds):
/// every rank regenerates it identically, so expectations need no side
/// channel. Ragged lengths (including empty), colliding tags and self-sends
/// are all exercised on purpose.
std::vector<SendOp> make_script(std::uint64_t seed, int ranks, int rounds) {
  static const std::size_t kLens[] = {0, 1, 3, 17, 64, 257, 1024};
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  std::vector<SendOp> script;
  for (int round = 0; round < rounds; ++round) {
    for (int src = 0; src < ranks; ++src) {
      const int nsends = static_cast<int>(splitmix64(s) % 3);
      for (int k = 0; k < nsends; ++k) {
        SendOp op;
        op.src = src;
        op.dst = static_cast<int>(splitmix64(s) % ranks);  // self-sends too
        op.tag = static_cast<int>(splitmix64(s) % 4);      // tag collisions
        op.len = kLens[splitmix64(s) % (sizeof kLens / sizeof kLens[0])];
        op.val_seed = splitmix64(s);
        op.nonblocking = splitmix64(s) % 3 == 0;
        script.push_back(op);
      }
    }
  }
  return script;
}

struct ReplayResult {
  // received[dst] maps (src, tag) -> payloads in delivery order.
  std::vector<std::map<std::pair<int, int>, std::vector<Payload>>> received;
  std::vector<CommStats> stats;
};

/// Replays `script` on a fresh World: every rank performs its sends in
/// script order, barriers, then drains exactly the messages the script
/// promises it — alternating blocking recv and irecv/wait per key to cover
/// both paths. FIFO per (src, tag) makes the drain order deterministic.
ReplayResult replay(const std::vector<SendOp>& script, int ranks) {
  ReplayResult out;
  out.received.resize(static_cast<std::size_t>(ranks));
  World w(ranks);
  w.run([&](Comm& comm) {
    const int me = comm.rank();
    for (const SendOp& op : script) {
      if (op.src != me) continue;
      Payload p = scripted_payload(op.val_seed, op.len);
      if (op.nonblocking) {
        Request r = comm.isend(op.dst, op.tag, std::move(p));
        EXPECT_TRUE(r.test());  // buffered sends complete immediately
      } else {
        comm.send(op.dst, op.tag, std::move(p));
      }
    }
    comm.barrier();
    // Expected inbound count per (src, tag), in script (== FIFO) order.
    std::map<std::pair<int, int>, std::size_t> inbound;
    for (const SendOp& op : script)
      if (op.dst == me) inbound[{op.src, op.tag}] += 1;
    auto& mine = out.received[static_cast<std::size_t>(me)];
    bool use_irecv = false;
    for (const auto& [key, count] : inbound) {
      for (std::size_t i = 0; i < count; ++i) {
        if (use_irecv) {
          Request r = comm.irecv(key.first, key.second);
          mine[key].push_back(r.take());
        } else {
          mine[key].push_back(comm.recv(key.first, key.second));
        }
        use_irecv = !use_irecv;
      }
    }
  });
  for (int r = 0; r < ranks; ++r) out.stats.push_back(w.stats(r));
  return out;
}

/// The schedule-independent CommStats fields (wait time, mailbox high-water
/// and soft-cap counts legitimately depend on interleaving; the traffic
/// totals and dispatch counts must not).
std::vector<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                       std::size_t, std::size_t>>
traffic_fingerprint(const std::vector<CommStats>& stats) {
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                         std::size_t, std::size_t>>
      fp;
  for (const CommStats& s : stats)
    fp.emplace_back(s.messages_sent, s.messages_received, s.bytes_sent,
                    s.bytes_received, s.tree_collectives, s.ring_collectives);
  return fp;
}

TEST(Conformance, SeededTrafficDeliversExactBitsInFifoOrder) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    const int ranks = 6;
    const auto script = make_script(seed, ranks, 5);
    ASSERT_FALSE(script.empty());
    const ReplayResult run = replay(script, ranks);
    // Reference: group the script by (dst, src, tag) in send order.
    std::vector<std::map<std::pair<int, int>, std::vector<Payload>>> expect(
        static_cast<std::size_t>(ranks));
    for (const SendOp& op : script)
      expect[static_cast<std::size_t>(op.dst)][{op.src, op.tag}].push_back(
          scripted_payload(op.val_seed, op.len));
    for (int r = 0; r < ranks; ++r) {
      const auto& got = run.received[static_cast<std::size_t>(r)];
      const auto& want = expect[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), want.size()) << "rank " << r << " seed " << seed;
      for (const auto& [key, payloads] : want) {
        const auto it = got.find(key);
        ASSERT_NE(it, got.end());
        ASSERT_EQ(it->second.size(), payloads.size());
        for (std::size_t i = 0; i < payloads.size(); ++i)
          EXPECT_EQ(it->second[i], payloads[i])  // bitwise: doubles compare
              << "rank " << r << " (src=" << key.first
              << ", tag=" << key.second << ") message " << i;
      }
    }
  }
}

TEST(Conformance, ThreeRunsPerSeedAreBitwiseAndStatsDeterministic) {
  for (const std::uint64_t seed : {3ull, 99ull}) {
    const int ranks = 5;
    const auto script = make_script(seed, ranks, 4);
    const ReplayResult a = replay(script, ranks);
    const ReplayResult b = replay(script, ranks);
    const ReplayResult c = replay(script, ranks);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.received, c.received);
    const auto fa = traffic_fingerprint(a.stats);
    EXPECT_EQ(fa, traffic_fingerprint(b.stats));
    EXPECT_EQ(fa, traffic_fingerprint(c.stats));
    // Conservation: every sent message and byte is drained by the script.
    std::size_t sent = 0, received = 0, bsent = 0, breceived = 0;
    for (const CommStats& s : a.stats) {
      sent += s.messages_sent;
      received += s.messages_received;
      bsent += s.bytes_sent;
      breceived += s.bytes_received;
    }
    EXPECT_EQ(sent, received);
    EXPECT_EQ(bsent, breceived);
  }
}

// --- collective families ----------------------------------------------------

constexpr std::size_t kAlwaysTree = static_cast<std::size_t>(-1);

/// Runs a scripted mix of collectives (bcast_auto at several sizes spanning
/// any crossover, tree reduce, ring allreduce/reduce_scatter) under the
/// given crossover knob and returns every rank's bcast results flattened,
/// plus the World's final stats.
struct CollectiveRun {
  std::vector<Payload> bcast_results;  // [rank * sizes + i]
  std::vector<Payload> allreduce_results;
  std::vector<CommStats> stats;
};

CollectiveRun run_collectives(int ranks, std::uint64_t seed,
                              std::size_t crossover) {
  static const std::size_t kSizes[] = {1, 16, 256, 1024, 1025, 4096, 16384};
  const std::size_t nsizes = sizeof kSizes / sizeof kSizes[0];
  CollectiveRun out;
  out.bcast_results.resize(static_cast<std::size_t>(ranks) * nsizes);
  out.allreduce_results.resize(static_cast<std::size_t>(ranks));
  World w(ranks);
  w.set_collective_crossover_doubles(crossover);
  std::vector<int> everyone(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) everyone[static_cast<std::size_t>(r)] = r;
  w.run([&](Comm& comm) {
    const int me = comm.rank();
    for (std::size_t i = 0; i < nsizes; ++i) {
      const int root = static_cast<int>((seed + i) % ranks);
      Payload data;
      if (me == root) data = scripted_payload(seed ^ (i * 1009), kSizes[i]);
      Payload got = comm.bcast_auto(root, everyone, std::move(data),
                                    static_cast<int>(10 + i), kSizes[i]);
      out.bcast_results[static_cast<std::size_t>(me) * nsizes + i] =
          std::move(got);
    }
    comm.barrier();
    Payload mine = scripted_payload(seed ^ (0xabcdull + me), 600);
    Payload summed = comm.allreduce(everyone, std::move(mine), 50);
    Payload reduced = comm.reduce(0, everyone,
                                  scripted_payload(seed ^ (0x77ull + me), 40),
                                  51, ReduceOp::kMax);
    if (me == 0) {
      // Tree max-reduce is exact: cross-check against the direct maximum.
      Payload want = scripted_payload(seed ^ 0x77ull, 40);
      for (int r = 1; r < ranks; ++r) {
        const Payload other = scripted_payload(seed ^ (0x77ull + r), 40);
        for (std::size_t j = 0; j < want.size(); ++j)
          want[j] = std::max(want[j], other[j]);
      }
      EXPECT_EQ(reduced, want);
    }
    out.allreduce_results[static_cast<std::size_t>(me)] = std::move(summed);
  });
  for (int r = 0; r < ranks; ++r) out.stats.push_back(w.stats(r));
  return out;
}

TEST(Conformance, BothCollectiveFamiliesMoveIdenticalBits) {
  for (const int ranks : {2, 5, 8}) {
    const CollectiveRun tree = run_collectives(ranks, 11, kAlwaysTree);
    const CollectiveRun ring = run_collectives(ranks, 11, 0);
    const CollectiveRun mixed = run_collectives(ranks, 11, 1024);
    EXPECT_EQ(tree.bcast_results, ring.bcast_results) << ranks;
    EXPECT_EQ(tree.bcast_results, mixed.bcast_results) << ranks;
    // allreduce keeps its fixed ring schedule, so kSum bits match too.
    EXPECT_EQ(tree.allreduce_results, ring.allreduce_results);
    // Every rank agrees with every other on the broadcast payloads.
    const std::size_t nsizes = tree.bcast_results.size() /
                               static_cast<std::size_t>(ranks);
    for (int r = 1; r < ranks; ++r)
      for (std::size_t i = 0; i < nsizes; ++i)
        EXPECT_EQ(tree.bcast_results[static_cast<std::size_t>(r) * nsizes + i],
                  tree.bcast_results[i]);
  }
}

TEST(Conformance, DispatchCountsMatchTheCrossoverKnob) {
  // 7 bcast_auto calls per rank at sizes {1,16,256,1024,1025,4096,16384}.
  // crossover=1024 sends the last three over the ring (size > 1024) for
  // groups >= 3; a 2-rank group always takes the tree.
  const CollectiveRun mixed = run_collectives(6, 21, 1024);
  std::size_t tree_calls = 0, ring_calls = 0;
  for (const CommStats& s : mixed.stats) {
    tree_calls += s.tree_collectives;
    ring_calls += s.ring_collectives;
  }
  EXPECT_EQ(tree_calls, 6u * 4u);  // sizes 1, 16, 256, 1024
  EXPECT_EQ(ring_calls, 6u * 3u);  // sizes 1025, 4096, 16384

  const CollectiveRun pair = run_collectives(2, 21, 0);
  std::size_t pair_ring = 0, pair_tree = 0;
  for (const CommStats& s : pair.stats) {
    pair_ring += s.ring_collectives;
    pair_tree += s.tree_collectives;
  }
  EXPECT_EQ(pair_ring, 0u);  // a 2-rank ring cannot pipeline: always tree
  EXPECT_EQ(pair_tree, 2u * 7u);

  const CollectiveRun all_tree = run_collectives(6, 21, kAlwaysTree);
  for (const CommStats& s : all_tree.stats) EXPECT_EQ(s.ring_collectives, 0u);
}

// --- scale ------------------------------------------------------------------

int os_thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

TEST(Conformance, World1024RanksRunsOnABoundedWorkerPool) {
  const int ranks = 1024;
  const int before = os_thread_count();
  ASSERT_GT(before, 0);
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  World w(ranks);
  EXPECT_LE(w.workers(), hw);
  std::vector<int> everyone(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) everyone[static_cast<std::size_t>(r)] = r;
  std::atomic<int> peak_threads{0};
  std::atomic<int> done{0};
  w.run([&](Comm& comm) {
    const int me = comm.rank();
    // Neighbor exchange around the full ring (every rank both sends and
    // blocks on a receive, so 1024 coroutines park and resume).
    comm.send((me + 1) % ranks, 3, {static_cast<double>(me), 0.5});
    const Payload from_left = comm.recv((me + ranks - 1) % ranks, 3);
    ASSERT_EQ(from_left.size(), 2u);
    EXPECT_EQ(from_left[0], static_cast<double>((me + ranks - 1) % ranks));
    // A size-adaptive broadcast across all 1024 ranks (ring side).
    Payload data;
    if (me == 0) data = scripted_payload(0x5ca1eull, 2048);
    const Payload got = comm.bcast_auto(0, everyone, std::move(data), 9, 2048);
    ASSERT_EQ(got.size(), 2048u);
    EXPECT_EQ(got[0], scripted_payload(0x5ca1eull, 2048)[0]);
    if (me == 0) {
      const int now = os_thread_count();
      int prev = peak_threads.load();
      while (now > prev && !peak_threads.compare_exchange_weak(prev, now)) {
      }
    }
    comm.barrier();
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), ranks);
  // The acceptance bound: OS threads stay <= hardware concurrency extras,
  // never O(ranks).
  EXPECT_LE(peak_threads.load(), before + hw);
  EXPECT_LE(peak_threads.load(), before + w.workers() - 1 + 1);
  // Conservation across the full fleet.
  std::size_t sent = 0, received = 0;
  for (int r = 0; r < ranks; ++r) {
    const CommStats s = w.stats(r);
    sent += s.messages_sent;
    received += s.messages_received;
  }
  EXPECT_EQ(sent, received);
}

}  // namespace
