// Chaos harness: runs the offload engine and the distributed HPL with the
// deterministic fault injector armed, and asserts the central invariant of
// the reliability protocol — a faulted run completes and is *bitwise
// identical* to the clean run. Drops come back via timeout retries,
// corruption via checksum NACKs, duplicates are deduplicated, dead cards are
// absorbed by survivors/host and dead ranks surface through the receive
// timeout diagnostics; none of it may change a single bit of the factors or
// the residual.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "blas/gemm_ref.h"
#include "blas/getrf.h"
#include "core/offload_functional.h"
#include "fault/injector.h"
#include "hpl/distributed.h"
#include "net/world.h"
#include "trace/timeline.h"
#include "util/rng.h"

namespace xphi {
namespace {

using core::FunctionalOffloadConfig;
using core::FunctionalOffloadStats;
using core::OffloadEngine;
using core::OffloadUpdate;
using core::offload_gemm_functional;
using fault::Action;
using fault::FaultEvent;
using fault::Injector;
using fault::InjectorConfig;
using fault::Site;
using hpl::DistributedHplOptions;
using hpl::Grid;
using hpl::Lookahead;
using hpl::run_distributed_hpl;
using util::Matrix;

/// Runs C += alpha*A*B through the offload engine and returns C.
Matrix<double> offload_run(std::size_t m, std::size_t n, std::size_t k,
                           const FunctionalOffloadConfig& cfg,
                           FunctionalOffloadStats* stats_out = nullptr) {
  Matrix<double> a(m, k), b(k, n), c(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  util::fill_hpl_matrix(c.view(), 3);
  const auto stats = offload_gemm_functional(-1.0, a.view(), b.view(),
                                             c.view(), cfg);
  EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
  if (stats_out != nullptr) *stats_out = stats;
  return c;
}

FunctionalOffloadConfig chaos_offload_config(Injector* inj) {
  FunctionalOffloadConfig cfg;
  cfg.knobs.mt = 32;
  cfg.knobs.nt = 32;
  cfg.cards = 2;
  cfg.host_steals = true;
  cfg.injector = inj;
  cfg.max_retries = 6;
  cfg.retry_timeout_ms = 5;
  return cfg;
}

TEST(Chaos, OffloadDropDuplicateCorruptDelayBitwiseIdentical) {
  FunctionalOffloadConfig clean = chaos_offload_config(nullptr);
  clean.host_steals = false;  // every tile crosses the faulted queues
  const Matrix<double> c_clean = offload_run(160, 160, 40, clean);

  InjectorConfig fc;
  fc.seed = 42;
  fc.dma_request = {.delay = 0.1, .drop = 0.15, .duplicate = 0.15,
                    .corrupt = 0.15, .delay_us = 300};
  fc.dma_result = {.delay = 0.1, .drop = 0.15, .corrupt = 0.15,
                   .delay_us = 300};
  Injector inj(fc);
  FunctionalOffloadStats stats;
  const Matrix<double> c_fault =
      offload_run(160, 160, 40, chaos_offload_config(&inj), &stats);

  EXPECT_GT(inj.fired(), 0u);
  EXPECT_EQ(util::max_abs_diff<double>(c_fault.view(), c_clean.view()), 0.0);
}

TEST(Chaos, OffloadFaultScheduleIsSeedDeterministic) {
  // Two runs with the same seed may draw different *numbers* of events
  // (retries are timing-driven), but the schedule itself is position-stable:
  // the seq-th draw at a site yields the same action in both runs, and
  // every logged event matches the pure decision function.
  InjectorConfig fc;
  fc.seed = 77;
  fc.dma_request = {.drop = 0.2, .duplicate = 0.2, .corrupt = 0.2};
  fc.dma_result = {.drop = 0.2, .corrupt = 0.2};

  Injector a(fc);
  FunctionalOffloadConfig cfg_a = chaos_offload_config(&a);
  cfg_a.host_steals = false;  // every tile crosses the faulted queues
  const Matrix<double> ca = offload_run(96, 96, 24, cfg_a);
  Injector b(fc);
  FunctionalOffloadConfig cfg_b = chaos_offload_config(&b);
  cfg_b.host_steals = false;
  const Matrix<double> cb = offload_run(96, 96, 24, cfg_b);

  EXPECT_GT(a.fired(), 0u);
  for (const FaultEvent& ev : a.events()) {
    EXPECT_EQ(ev.action, a.decide(ev.site, ev.seq));
    EXPECT_EQ(ev.action, b.decide(ev.site, ev.seq))
        << site_name(ev.site) << " seq=" << ev.seq;
  }
  // And whatever the interleaving did to retry counts, the results agree
  // bitwise.
  EXPECT_EQ(util::max_abs_diff<double>(ca.view(), cb.view()), 0.0);
}

TEST(Chaos, SingleCardDiesHostAbsorbsEverythingPending) {
  FunctionalOffloadConfig clean;
  clean.knobs.mt = clean.knobs.nt = 32;
  clean.cards = 1;
  clean.host_steals = false;
  const Matrix<double> c_clean = offload_run(128, 128, 32, clean);

  InjectorConfig fc;
  fc.dead_card = 0;
  fc.card_death_after = 2;  // dies holding its third tile
  Injector inj(fc);
  FunctionalOffloadConfig cfg = clean;
  cfg.injector = &inj;
  cfg.retry_timeout_ms = 5;
  FunctionalOffloadStats stats;
  const Matrix<double> c_fault = offload_run(128, 128, 32, cfg, &stats);

  EXPECT_EQ(stats.cards_lost, 1u);
  EXPECT_EQ(stats.tiles_cards, 2u);  // what the card finished before dying
  EXPECT_GT(stats.tiles_absorbed, 0u);
  EXPECT_EQ(stats.tiles_cards + stats.tiles_absorbed, stats.tiles_total);
  EXPECT_EQ(inj.count(Site::kDmaRequest, Action::kKill), 1u);
  EXPECT_EQ(util::max_abs_diff<double>(c_fault.view(), c_clean.view()), 0.0);
}

TEST(Chaos, SurvivingCardAndHostAbsorbDeadCardsTiles) {
  FunctionalOffloadConfig clean;
  clean.knobs.mt = clean.knobs.nt = 32;
  clean.cards = 2;
  clean.host_steals = false;  // all tiles go through the cards
  const Matrix<double> c_clean = offload_run(256, 256, 32, clean);

  InjectorConfig fc;
  fc.dead_card = 1;
  fc.card_death_after = 0;  // dies on its first dequeue
  Injector inj(fc);
  FunctionalOffloadConfig cfg = clean;
  cfg.injector = &inj;
  cfg.retry_timeout_ms = 5;
  FunctionalOffloadStats stats;
  const Matrix<double> c_fault = offload_run(256, 256, 32, cfg, &stats);

  EXPECT_EQ(stats.cards_lost, 1u);
  EXPECT_GT(stats.tiles_cards, 0u);  // the survivor kept serving the queue
  EXPECT_EQ(util::max_abs_diff<double>(c_fault.view(), c_clean.view()), 0.0);
}

TEST(Chaos, PermanentCorruptionExhaustsRetriesAndDegradesToHost) {
  // Every request transfer is corrupted, every retry included: after
  // max_retries NACKs per tile the host absorbs it — the run still finishes
  // bitwise-clean, just without card contributions.
  FunctionalOffloadConfig clean;
  clean.knobs.mt = clean.knobs.nt = 32;
  clean.cards = 1;
  clean.host_steals = false;
  const Matrix<double> c_clean = offload_run(96, 96, 24, clean);

  InjectorConfig fc;
  fc.dma_request.corrupt = 1.0;
  Injector inj(fc);
  FunctionalOffloadConfig cfg = clean;
  cfg.injector = &inj;
  cfg.max_retries = 2;
  cfg.retry_timeout_ms = 2;
  FunctionalOffloadStats stats;
  const Matrix<double> c_fault = offload_run(96, 96, 24, cfg, &stats);

  EXPECT_EQ(stats.tiles_cards, 0u);
  EXPECT_EQ(stats.tiles_absorbed, stats.tiles_total);
  EXPECT_GT(stats.checksum_failures, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(util::max_abs_diff<double>(c_fault.view(), c_clean.view()), 0.0);
}

TEST(Chaos, FaultStallsAppearAsTimelineSpans) {
  InjectorConfig fc;
  fc.dma_request = {.delay = 1.0, .delay_us = 200};  // every request stalls
  Injector inj(fc);
  FunctionalOffloadConfig cfg = chaos_offload_config(&inj);
  cfg.host_steals = false;  // so requests are guaranteed to flow
  offload_run(96, 96, 24, cfg);
  ASSERT_GT(inj.count(Site::kDmaRequest, Action::kDelay), 0u);

  trace::Timeline tl;
  inj.flush_spans(tl);
  ASSERT_FALSE(tl.spans().empty());
  EXPECT_GT(tl.busy_by_kind()[trace::SpanKind::kFault], 0.0);
  for (const trace::Span& s : tl.spans())
    EXPECT_EQ(s.kind, trace::SpanKind::kFault);
}

TEST(Chaos, CardDiesInEveryCallOfAReusedEngineBitwiseFactors) {
  // A whole look-ahead LU on one resident engine's pool. The scripted death
  // is per call: card 0 dies after two tiles in every trailing update that
  // hands it a third, so every such call re-homes tiles, and the next call
  // starts with all cards alive on the same pool.
  const std::size_t n = 192, nb = 32;
  const auto factor = [&](const FunctionalOffloadConfig& cfg, Matrix<double>& a,
                          std::vector<std::size_t>& piv) {
    util::fill_hpl_matrix(a.view(), 29);
    OffloadEngine engine(cfg);
    blas::PanelOptions panel;
    panel.pool = &engine.pool();
    return blas::getrf_stages<double>(a.view(), piv, nb, panel,
                                      OffloadUpdate{engine});
  };
  for (const int cards : {1, 2}) {
    FunctionalOffloadConfig clean;
    clean.knobs.mt = clean.knobs.nt = 32;
    clean.cards = cards;
    clean.host_steals = false;
    Matrix<double> want(n, n);
    std::vector<std::size_t> want_piv(n);
    ASSERT_TRUE(factor(clean, want, want_piv));

    InjectorConfig fc;
    fc.dead_card = 0;
    fc.card_death_after = 2;
    Injector inj(fc);
    FunctionalOffloadConfig cfg = clean;
    cfg.injector = &inj;
    cfg.retry_timeout_ms = 5;
    Matrix<double> got(n, n);
    std::vector<std::size_t> piv(n);
    ASSERT_TRUE(factor(cfg, got, piv));

    // With one card every call of more than two tiles must reach the
    // third dequeue; with two the survivor may drain a call first.
    if (cards == 1) {
      EXPECT_GT(inj.count(Site::kDmaRequest, Action::kKill), 1u);
    }
    EXPECT_EQ(piv, want_piv) << "cards " << cards;
    for (std::size_t r = 0; r < n; ++r)
      ASSERT_EQ(std::memcmp(got.data() + r * got.ld(),
                            want.data() + r * want.ld(), n * sizeof(double)),
                0)
          << "cards " << cards << " row " << r;
  }
}

// ---------------------------------------------------------------------------
// Distributed HPL under chaos
// ---------------------------------------------------------------------------

TEST(Chaos, HplNetDelayAndDropBitwiseIdentical) {
  const auto clean = run_distributed_hpl(72, 12, Grid{2, 2}, 19);
  ASSERT_TRUE(clean.ok);

  InjectorConfig fc;
  fc.seed = 3;
  fc.net = {.delay = 0.2, .drop = 0.1, .delay_us = 100};
  Injector inj(fc);
  DistributedHplOptions opt;
  opt.injector = &inj;
  const auto faulted = run_distributed_hpl(72, 12, Grid{2, 2}, 19, opt);

  ASSERT_TRUE(faulted.ok);
  EXPECT_GT(inj.count(Site::kNetMessage, Action::kDelay) +
                inj.count(Site::kNetMessage, Action::kDrop),
            0u);
  EXPECT_EQ(faulted.ipiv, clean.ipiv);
  EXPECT_EQ(util::max_abs_diff<double>(faulted.factored.view(),
                                       clean.factored.view()),
            0.0);
  EXPECT_EQ(faulted.residual, clean.residual);
}

// The acceptance scenario of this PR: network drop + delay faults *and* a
// card death inside every rank's offload engine, on the full hybrid path
// (look-ahead + offloaded trailing updates) — the run must complete and the
// residual must be bitwise identical to the fault-free run.
TEST(Chaos, HplDropDelayDeadCardBitwiseResidual) {
  DistributedHplOptions clean_opt;
  clean_opt.use_offload_engine = true;
  clean_opt.offload.knobs.mt = clean_opt.offload.knobs.nt = 24;
  clean_opt.offload.cards = 2;
  clean_opt.lookahead = Lookahead::kBasic;
  const auto clean = run_distributed_hpl(72, 24, Grid{2, 2}, 23, clean_opt);
  ASSERT_TRUE(clean.ok);

  InjectorConfig fc;
  fc.seed = 2026;
  fc.net = {.delay = 0.15, .drop = 0.1, .delay_us = 100};
  fc.dma_request = {.drop = 0.1, .corrupt = 0.1, .delay_us = 100};
  fc.dma_result = {.drop = 0.1, .delay_us = 100};
  fc.dead_card = 1;  // card 1 dies immediately in every engine instantiation
  fc.card_death_after = 0;
  Injector inj(fc);
  DistributedHplOptions opt = clean_opt;
  opt.injector = &inj;
  opt.offload.injector = &inj;
  opt.offload.max_retries = 6;
  opt.offload.retry_timeout_ms = 4;
  const auto faulted = run_distributed_hpl(72, 24, Grid{2, 2}, 23, opt);

  ASSERT_TRUE(faulted.ok);
  EXPECT_GT(inj.fired(), 0u);
  // Whether card 1 dequeues before a tiny trailing update drains is
  // scheduling-dependent, so the kill count is not asserted here; the
  // dedicated degradation tests above pin it deterministically.
  EXPECT_EQ(faulted.ipiv, clean.ipiv);
  EXPECT_EQ(util::max_abs_diff<double>(faulted.factored.view(),
                                       clean.factored.view()),
            0.0);
  EXPECT_EQ(faulted.residual, clean.residual);
}

TEST(Chaos, LookaheadSchemesSurviveSlowRankBitwise) {
  // Satellite: a single slow rank (stalls before every send) perturbs the
  // schedule with and without look-ahead but must not change pivots or
  // factors; the look-ahead must still overlap broadcast with compute.
  const auto baseline = run_distributed_hpl(60, 12, Grid{2, 2}, 31);
  ASSERT_TRUE(baseline.ok);

  for (Lookahead scheme : {Lookahead::kNone, Lookahead::kBasic}) {
    InjectorConfig fc;
    fc.slow_rank = 1;
    fc.slow_rank_us = 200;
    Injector inj(fc);
    trace::Timeline tl;
    DistributedHplOptions opt;
    opt.lookahead = scheme;
    opt.injector = &inj;
    opt.timeline = &tl;
    const auto res = run_distributed_hpl(60, 12, Grid{2, 2}, 31, opt);
    ASSERT_TRUE(res.ok) << "scheme=" << static_cast<int>(scheme);
    EXPECT_EQ(res.ipiv, baseline.ipiv);
    EXPECT_EQ(util::max_abs_diff<double>(res.factored.view(),
                                         baseline.factored.view()),
              0.0)
        << "scheme=" << static_cast<int>(scheme);
    if (scheme == Lookahead::kBasic) {
      EXPECT_GT(trace::cross_lane_overlap(tl, trace::SpanKind::kBroadcast,
                                          trace::SpanKind::kGemm),
                0.0);
    }
  }
}

TEST(Chaos, DeadRankSurfacesAsRecvTimeoutDiagnostic) {
  InjectorConfig fc;
  fc.dead_rank = 1;
  fc.rank_death_after = 3;
  Injector inj(fc);
  net::World world(2);
  world.set_recv_timeout(0.5);
  world.set_fault_injector(&inj);
  EXPECT_THROW(
      world.run([](net::Comm& comm) {
        const int peer = 1 - comm.rank();
        for (int round = 0; round < 10; ++round) {
          comm.send(peer, round, net::Payload{static_cast<double>(round)});
          comm.recv(peer, round);
        }
      }),
      std::runtime_error);
  EXPECT_EQ(inj.count(Site::kNetMessage, Action::kKill), 1u);
}

TEST(Chaos, SeededSweepShapesSchemesAndFaultSchedules) {
  // One master seed drives everything: matrix shape, look-ahead scheme, and
  // the fault schedule. Every faulted run must match its clean twin bitwise.
  util::Rng master(2026);
  for (int iter = 0; iter < 5; ++iter) {
    const std::size_t nb = 8 + 4 * (master.next_u64() % 4);       // 8..20
    const std::size_t n = nb * (3 + master.next_u64() % 3);       // 3..5 blocks
    const Grid grid = (master.next_u64() % 2) ? Grid{2, 2} : Grid{1, 2};
    // Three draws kept from when there were three schemes, so the shapes
    // and fault seeds stay the same.
    const auto scheme = master.next_u64() % 3 == 0 ? Lookahead::kNone
                                                   : Lookahead::kBasic;
    const std::uint64_t mat_seed = 1 + master.next_u64() % 1000;

    DistributedHplOptions base;
    base.lookahead = scheme;
    const auto clean = run_distributed_hpl(n, nb, grid, mat_seed, base);

    InjectorConfig fc;
    fc.seed = master.next_u64();
    fc.net = {.delay = master.next_in(0.0, 0.3),
              .drop = master.next_in(0.0, 0.2), .delay_us = 50};
    Injector inj(fc);
    DistributedHplOptions opt = base;
    opt.injector = &inj;
    const auto faulted = run_distributed_hpl(n, nb, grid, mat_seed, opt);

    const auto label = [&] {
      return ::testing::Message() << "iter=" << iter << " n=" << n
                                  << " nb=" << nb << " grid=" << grid.p << "x"
                                  << grid.q << " scheme="
                                  << static_cast<int>(scheme);
    };
    ASSERT_TRUE(clean.ok) << label();
    ASSERT_TRUE(faulted.ok) << label();
    EXPECT_EQ(faulted.ipiv, clean.ipiv) << label();
    EXPECT_EQ(util::max_abs_diff<double>(faulted.factored.view(),
                                         clean.factored.view()),
              0.0)
        << label();
    EXPECT_EQ(faulted.residual, clean.residual) << label();
  }
}

}  // namespace
}  // namespace xphi
