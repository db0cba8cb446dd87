#include "net/world.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

namespace xphi::net {
namespace {

TEST(World, PointToPointDelivers) {
  World w(2);
  double got = 0;
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 7, {1.0, 2.0, 3.0});
    } else {
      const auto msg = c.recv(0, 7);
      got = std::accumulate(msg.begin(), msg.end(), 0.0);
    }
  });
  EXPECT_EQ(got, 6.0);
}

TEST(World, TagMatchingSeparatesStreams) {
  World w(2);
  Payload a, b;
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 2, {2.0});
      c.send(1, 1, {1.0});
    } else {
      a = c.recv(0, 1);  // receives tag 1 even though tag 2 arrived first
      b = c.recv(0, 2);
    }
  });
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(b[0], 2.0);
}

TEST(World, FifoWithinSameSrcTag) {
  World w(2);
  std::vector<double> order;
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) c.send(1, 0, {static_cast<double>(i)});
    } else {
      for (int i = 0; i < 5; ++i) order.push_back(c.recv(0, 0)[0]);
    }
  });
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(World, PairwiseExchangeNoDeadlock) {
  World w(2);
  double sums[2] = {0, 0};
  w.run([&](Comm& c) {
    const int partner = 1 - c.rank();
    c.send(partner, 0, {static_cast<double>(c.rank() + 1)});
    sums[c.rank()] = c.recv(partner, 0)[0];
  });
  EXPECT_EQ(sums[0], 2.0);
  EXPECT_EQ(sums[1], 1.0);
}

TEST(World, BroadcastFromRankZero) {
  for (int ranks : {2, 3, 4, 5, 7}) {
    World w(ranks);
    std::vector<double> got(ranks, 0);
    std::vector<int> group(ranks);
    for (int i = 0; i < ranks; ++i) group[i] = i;
    w.run([&](Comm& c) {
      Payload data;
      if (c.rank() == 0) data = {42.0, 43.0};
      data = c.bcast(0, group, std::move(data), 5);
      got[c.rank()] = data[0] + data[1];
    });
    for (int r = 0; r < ranks; ++r) EXPECT_EQ(got[r], 85.0) << ranks << " ranks";
  }
}

TEST(World, BroadcastFromNonzeroRoot) {
  World w(4);
  std::vector<int> group = {0, 1, 2, 3};
  std::vector<double> got(4, 0);
  w.run([&](Comm& c) {
    Payload data;
    if (c.rank() == 2) data = {9.0};
    data = c.bcast(2, group, std::move(data), 3);
    got[c.rank()] = data[0];
  });
  for (double v : got) EXPECT_EQ(v, 9.0);
}

TEST(World, BroadcastWithinSubgroup) {
  World w(4);
  // Broadcast only among ranks {1, 3}; others must stay untouched.
  std::vector<double> got(4, -1);
  w.run([&](Comm& c) {
    if (c.rank() == 1 || c.rank() == 3) {
      Payload data;
      if (c.rank() == 3) data = {5.0};
      data = c.bcast(3, {1, 3}, std::move(data), 9);
      got[c.rank()] = data[0];
    }
  });
  EXPECT_EQ(got[1], 5.0);
  EXPECT_EQ(got[3], 5.0);
  EXPECT_EQ(got[0], -1.0);
  EXPECT_EQ(got[2], -1.0);
}

TEST(World, BarrierSynchronizes) {
  World w(3);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  w.run([&](Comm& c) {
    before.fetch_add(1);
    c.barrier();
    if (before.load() != 3) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, EightRankAllToAll) {
  World w(8);
  std::vector<double> sums(8, 0);
  w.run([&](Comm& c) {
    for (int dst = 0; dst < 8; ++dst)
      if (dst != c.rank())
        c.send(dst, 0, {static_cast<double>(c.rank())});
    double s = 0;
    for (int src = 0; src < 8; ++src)
      if (src != c.rank()) s += c.recv(src, 0)[0];
    sums[c.rank()] = s;
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(sums[r], 28.0 - r);
}

TEST(World, SingleRankWorld) {
  World w(1);
  int visits = 0;
  w.run([&](Comm& c) {
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    auto d = c.bcast(0, {0}, {1.5}, 0);
    EXPECT_EQ(d[0], 1.5);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

// ---------------------------------------------------------------------------
// Nonblocking requests
// ---------------------------------------------------------------------------

TEST(World, IsendCompletesImmediately) {
  World w(2);
  Payload got;
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      Request r = c.isend(1, 4, {7.0, 8.0});
      EXPECT_TRUE(r.valid());
      EXPECT_TRUE(r.test());  // buffered sends complete instantly
      r.wait();
    } else {
      got = c.irecv(0, 4).take();
    }
  });
  EXPECT_EQ(got, (Payload{7.0, 8.0}));
}

TEST(World, IrecvTestIsNonblocking) {
  World w(2);
  bool early_test = true;
  Payload got;
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      const auto ready = c.recv(1, 1);  // wait until rank 1 probed
      (void)ready;
      c.send(1, 2, {3.0});
    } else {
      Request r = c.irecv(0, 2);
      early_test = r.test();  // nothing sent yet -> must be false, not block
      c.send(0, 1, {1.0});
      got = r.take();
    }
  });
  EXPECT_FALSE(early_test);
  EXPECT_EQ(got, (Payload{3.0}));
}

TEST(World, IsendIrecvOrderingUnderRandomInterleavings) {
  // FIFO per (src, tag) must hold however rank progress interleaves; each
  // round randomizes per-rank delays to shake out ordering races (run under
  // TSan via scripts/run_tsan.sh).
  std::mt19937 gen(1234);
  for (int round = 0; round < 8; ++round) {
    const int ranks = 4;
    World w(ranks);
    std::vector<int> delay_us(ranks);
    for (auto& d : delay_us) d = static_cast<int>(gen() % 200);
    std::vector<std::vector<double>> seen(ranks);
    w.run([&](Comm& c) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us[c.rank()]));
      // Every rank isends a numbered stream to every other rank...
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst == c.rank()) continue;
        for (int i = 0; i < 5; ++i)
          c.isend(dst, 3, {c.rank() * 100.0 + i});
      }
      // ...and irecvs them; per-source order must be preserved.
      std::vector<Request> reqs;
      for (int src = 0; src < ranks; ++src) {
        if (src == c.rank()) continue;
        for (int i = 0; i < 5; ++i) reqs.push_back(c.irecv(src, 3));
      }
      for (auto& r : reqs) seen[c.rank()].push_back(r.take()[0]);
    });
    for (int r = 0; r < ranks; ++r) {
      std::size_t pos = 0;
      for (int src = 0; src < ranks; ++src) {
        if (src == r) continue;
        for (int i = 0; i < 5; ++i)
          EXPECT_EQ(seen[r][pos++], src * 100.0 + i)
              << "rank " << r << " src " << src << " msg " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

TEST(World, RingBcastMatchesBinomialAcrossRaggedSegments) {
  // Payload-equality of the segmented ring vs the binomial tree, over rank
  // counts, roots, payload lengths that don't divide the segment, and
  // segment sizes including 0 (single chunk) and > payload.
  for (int ranks : {2, 3, 5, 8}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{129}}) {
      for (std::size_t seg : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{32}, std::size_t{1000}}) {
        const int root = static_cast<int>(len) % ranks;
        Payload reference(len);
        for (std::size_t i = 0; i < len; ++i)
          reference[i] = std::sin(static_cast<double>(i) + ranks);
        std::vector<int> group(ranks);
        for (int i = 0; i < ranks; ++i) group[i] = i;
        World w(ranks);
        std::vector<Payload> ring(ranks), tree(ranks);
        w.run([&](Comm& c) {
          Payload mine = c.rank() == root ? reference : Payload{};
          ring[c.rank()] = c.ring_bcast(root, group, mine, 11, seg);
          tree[c.rank()] = c.bcast(root, group, std::move(mine), 12);
        });
        for (int r = 0; r < ranks; ++r) {
          EXPECT_EQ(ring[r], reference)
              << "ring ranks=" << ranks << " len=" << len << " seg=" << seg;
          EXPECT_EQ(ring[r], tree[r])
              << "vs tree ranks=" << ranks << " len=" << len << " seg=" << seg;
        }
      }
    }
  }
}

TEST(World, RingBcastWithinSubgroup) {
  World w(5);
  const Payload data{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<Payload> got(5);
  w.run([&](Comm& c) {
    if (c.rank() % 2 == 0) {  // subgroup {0, 2, 4}, root 4
      Payload mine = c.rank() == 4 ? data : Payload{};
      got[c.rank()] = c.ring_bcast(4, {0, 2, 4}, std::move(mine), 2, 2);
    }
  });
  EXPECT_EQ(got[0], data);
  EXPECT_EQ(got[2], data);
  EXPECT_EQ(got[4], data);
  EXPECT_TRUE(got[1].empty());
  EXPECT_TRUE(got[3].empty());
}

TEST(World, AllreduceSumMatchesSerialReduction) {
  for (int ranks : {1, 2, 3, 4, 7}) {
    for (std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{10},
                            std::size_t{65}}) {
      // Serial oracle: sum of every rank's contribution, in rank order.
      std::vector<Payload> inputs(ranks, Payload(len));
      Payload expected(len, 0.0);
      for (int r = 0; r < ranks; ++r)
        for (std::size_t i = 0; i < len; ++i) {
          inputs[r][i] = std::cos(r * 31.0 + static_cast<double>(i));
          expected[i] += inputs[r][i];
        }
      std::vector<int> group(ranks);
      for (int i = 0; i < ranks; ++i) group[i] = i;
      World w(ranks);
      std::vector<Payload> got(ranks);
      w.run([&](Comm& c) {
        got[c.rank()] = c.allreduce(group, inputs[c.rank()], 6);
      });
      for (int r = 0; r < ranks; ++r) {
        ASSERT_EQ(got[r].size(), len);
        for (std::size_t i = 0; i < len; ++i)
          EXPECT_NEAR(got[r][i], expected[i], 1e-12)
              << "ranks=" << ranks << " len=" << len << " r=" << r;
      }
    }
  }
}

TEST(World, AllreduceMax) {
  World w(4);
  std::vector<Payload> got(4);
  w.run([&](Comm& c) {
    Payload mine = {static_cast<double>(c.rank()), -c.rank() * 2.0, 1.0};
    got[c.rank()] = c.allreduce({0, 1, 2, 3}, std::move(mine), 8, ReduceOp::kMax);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(got[r], (Payload{3.0, 0.0, 1.0}));
}

TEST(World, ReduceScatterChunksByGroupPosition) {
  // n = 7 over 3 ranks: chunks are [0,3), [3,5), [5,7) (near-equal split);
  // rank at group position i gets the reduced chunk i.
  World w(3);
  std::vector<Payload> got(3);
  w.run([&](Comm& c) {
    Payload mine(7);
    for (std::size_t i = 0; i < 7; ++i)
      mine[i] = static_cast<double>((c.rank() + 1) * (i + 1));
    got[c.rank()] = c.reduce_scatter({0, 1, 2}, std::move(mine), 13);
  });
  // Element-wise sum is 6*(i+1).
  EXPECT_EQ(got[0], (Payload{6.0, 12.0, 18.0}));
  EXPECT_EQ(got[1], (Payload{24.0, 30.0}));
  EXPECT_EQ(got[2], (Payload{36.0, 42.0}));
}

// ---------------------------------------------------------------------------
// Timeout, mailbox accounting, stats
// ---------------------------------------------------------------------------

TEST(World, RecvTimeoutThrowsDiagnosticInsteadOfDeadlocking) {
  World w(2);
  w.set_recv_timeout(0.05);
  std::string message;
  try {
    w.run([&](Comm& c) {
      if (c.rank() == 1) (void)c.recv(0, 77);  // nobody ever sends this
    });
    FAIL() << "expected the blocked recv to throw";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  // The diagnostic must name the blocked rank and the (src, tag) slot.
  EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
  EXPECT_NE(message.find("src=0"), std::string::npos) << message;
  EXPECT_NE(message.find("tag=77"), std::string::npos) << message;
}

TEST(World, RecvFromThrownRankFailsAtOnceWithItsError) {
  // Rank 0 waits on rank 1, which throws: rank 0's receive must fail at
  // once rather than wait out its timeout, and the exception run()
  // rethrows (rank 0's, by rank index) must carry rank 1's own error.
  World w(2);
  w.set_recv_timeout(60);
  const auto t0 = std::chrono::steady_clock::now();
  std::string message;
  try {
    w.run([&](Comm& c) {
      if (c.rank() == 1) throw std::runtime_error("boom");
      (void)c.recv(1, 3);
    });
    FAIL() << "expected the receive from the failed rank to throw";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_LT(s, 5.0);
  EXPECT_NE(message.find("boom"), std::string::npos) << message;
  EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
  EXPECT_NE(message.find("src=1"), std::string::npos) << message;
}

TEST(World, RecvFromThrownRankDrainsItsQueueFirst) {
  // What a rank sent before it threw is still delivered; the next receive
  // from it fails at once.
  World w(2);
  w.set_recv_timeout(60);
  double got = 0;
  std::string message;
  try {
    w.run([&](Comm& c) {
      if (c.rank() == 1) {
        c.send(0, 4, {5.0});
        throw std::runtime_error("after one send");
      }
      got = c.recv(1, 4).at(0);
      (void)c.recv(1, 4);
    });
    FAIL() << "expected the second receive to throw";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(got, 5.0);
  EXPECT_NE(message.find("after one send"), std::string::npos) << message;
}

TEST(World, MailboxHighWaterAndSoftCap) {
  World w(2);
  w.set_mailbox_soft_cap(3);
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) c.send(1, 0, {static_cast<double>(i)});
      c.send(1, 1, {9.0});  // sync: all five are queued before rank 1 drains
    } else {
      (void)c.recv(0, 1);
      for (int i = 0; i < 5; ++i) (void)c.recv(0, 0);
    }
  });
  EXPECT_GE(w.mailbox_high_water(1), 5u);  // 5 queued on tag 0 + the sync msg
  EXPECT_EQ(w.mailbox_high_water(0), 0u);
  EXPECT_GT(w.stats(1).soft_cap_breaches, 0u);  // logged, never aborted
}

TEST(World, CommStatsCountTraffic) {
  World w(2);
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 0, {1.0, 2.0, 3.0});   // 3 doubles = 24 bytes
      c.send(1, 0, {4.0});             // 1 double  =  8 bytes
    } else {
      (void)c.recv(0, 0);
      (void)c.recv(0, 0);
    }
  });
  const CommStats s0 = w.stats(0);
  const CommStats s1 = w.stats(1);
  EXPECT_EQ(s0.messages_sent, 2u);
  EXPECT_EQ(s0.bytes_sent, 32u);
  EXPECT_EQ(s0.messages_received, 0u);
  EXPECT_EQ(s1.messages_received, 2u);
  EXPECT_EQ(s1.bytes_received, 32u);
  EXPECT_EQ(s1.messages_sent, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent Worlds: a serve-style process runs several in-process fabrics
// at once (one per server instance), so the transport must keep soft-cap
// accounting, stats, and shutdown strictly per-World.
// ---------------------------------------------------------------------------

TEST(World, SoftCapBackpressureUnderLoad) {
  // Flood a rank far past a small soft cap from two producers at once:
  // every message still arrives (the cap is advisory backpressure, never
  // loss) and the breach counter records the overrun.
  World w(3);
  w.set_mailbox_soft_cap(2);
  std::vector<double> sums(3, 0);
  w.run([&](Comm& c) {
    if (c.rank() != 2) {
      for (int i = 0; i < 40; ++i)
        c.isend(2, c.rank(), {static_cast<double>(i + 1)});
    } else {
      double s = 0;
      (void)std::this_thread::yield();  // let the queues actually pile up
      for (int src = 0; src < 2; ++src)
        for (int i = 0; i < 40; ++i) s += c.recv(src, src)[0];
      sums[2] = s;
    }
  });
  EXPECT_EQ(sums[2], 2 * (40.0 * 41.0 / 2));  // nothing lost
  EXPECT_GT(w.stats(2).soft_cap_breaches, 0u);
  EXPECT_GE(w.mailbox_high_water(2), 3u);  // cap exceeded, only logged
}

TEST(World, StatsIsolationBetweenSimultaneousWorlds) {
  // Two Worlds running concurrently on separate driver threads must keep
  // exact, independent traffic counts — no shared counters, no cross talk.
  World a(2), b(2);
  std::thread ta([&] {
    a.run([](Comm& c) {
      if (c.rank() == 0)
        for (int i = 0; i < 3; ++i) c.send(1, 0, {1.0, 2.0});
      else
        for (int i = 0; i < 3; ++i) (void)c.recv(0, 0);
    });
  });
  std::thread tb([&] {
    b.run([](Comm& c) {
      if (c.rank() == 0)
        for (int i = 0; i < 5; ++i) c.send(1, 0, {1.0});
      else
        for (int i = 0; i < 5; ++i) (void)c.recv(0, 0);
    });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.stats(0).messages_sent, 3u);
  EXPECT_EQ(a.stats(0).bytes_sent, 48u);  // 3 messages x 2 doubles
  EXPECT_EQ(a.stats(1).messages_received, 3u);
  EXPECT_EQ(b.stats(0).messages_sent, 5u);
  EXPECT_EQ(b.stats(0).bytes_sent, 40u);  // 5 messages x 1 double
  EXPECT_EQ(b.stats(1).messages_received, 5u);
  EXPECT_EQ(a.stats(0).soft_cap_breaches + a.stats(1).soft_cap_breaches, 0u);
}

TEST(World, ExceptionSafeShutdownWhileSecondWorldServes) {
  // World A deadlocks (a recv nobody answers) and is torn down through the
  // timeout diagnostic while World B keeps serving on another thread; B must
  // complete all its traffic untouched and A must not leak or hang.
  World broken(2);
  broken.set_recv_timeout(0.05);
  World healthy(2);
  std::atomic<bool> broken_threw{false};
  double healthy_sum = 0;
  std::thread tb([&] {
    healthy.run([&](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 20; ++i) {
          c.send(1, 0, {static_cast<double>(i)});
          // Stretch B's run across A's whole failure window.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      } else {
        double s = 0;
        for (int i = 0; i < 20; ++i) s += c.recv(0, 0)[0];
        healthy_sum = s;
      }
    });
  });
  try {
    broken.run([](Comm& c) {
      if (c.rank() == 1) (void)c.recv(0, 99);  // never sent
    });
  } catch (const std::runtime_error&) {
    broken_threw.store(true);
  }
  tb.join();
  EXPECT_TRUE(broken_threw.load());
  EXPECT_EQ(healthy_sum, 19.0 * 20.0 / 2);
  EXPECT_EQ(healthy.stats(0).messages_sent, 20u);
  // The broken World is destructible and queryable after the throw.
  EXPECT_EQ(broken.stats(0).messages_sent, 0u);
}

}  // namespace
}  // namespace xphi::net
