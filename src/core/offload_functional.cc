#include "core/offload_functional.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blas/gemm_tiled.h"
#include "blas/pack_cache.h"
#include "core/tile_grid.h"
#include "fault/injector.h"
#include "pci/queue.h"
#include "tune/bucket.h"
#include "tune/tuner.h"

namespace xphi::core {

namespace {

using util::Matrix;
using util::MatrixView;
using Clock = std::chrono::steady_clock;

/// A DGEMM request crossing the (simulated) PCIe link: packed operands of
/// one tile, exactly what the host-side copy/pack cores produce (step 1-3
/// in Figure 10b).
struct TileRequest {
  std::size_t tile_index = 0;
  int attempt = 1;
  std::size_t rows = 0, cols = 0, depth = 0;
  // Shared packed panels: one A row-panel serves every tile of its grid
  // row, one B column-panel every tile of its grid column (pack cache).
  std::shared_ptr<const blas::PackedA<double>> a;
  std::shared_ptr<const blas::PackedB<double>> b;
  /// FNV over the packed payload, verified card-side. 0 = unchecked
  /// (clean run); an injected kCorrupt flips a bit here, standing in for
  /// payload bits flipped in DMA and caught by the end-to-end checksum.
  std::uint64_t checksum = 0;
};

/// The result tile coming back (step 7-9): the product block, to be
/// accumulated into C by the host.
struct TileResult {
  std::size_t tile_index = 0;
  int attempt = 1;
  bool ok = true;  // false: the request arrived corrupted (NACK)
  std::uint64_t checksum = 0;  // over the product payload (0 = unchecked)
  std::unique_ptr<Matrix<double>> product;
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t request_checksum(const TileRequest& req) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv_mix(h, req.tile_index);
  h = fnv_mix(h, req.rows);
  h = fnv_mix(h, req.cols);
  h = fnv_mix(h, req.depth);
  const auto& a = *req.a;
  for (std::size_t t = 0; t < a.tiles(); ++t) {
    const double* p = a.tile(t);
    for (std::size_t i = 0; i < a.tile_rows() * a.depth(); ++i)
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(p[i]));
  }
  const auto& b = *req.b;
  for (std::size_t t = 0; t < b.tiles(); ++t) {
    const double* p = b.tile(t);
    for (std::size_t i = 0; i < b.tile_cols() * b.depth(); ++i)
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(p[i]));
  }
  return h != 0 ? h : 1;  // 0 is reserved for "unchecked"
}

std::uint64_t result_checksum(const TileResult& res) {
  std::uint64_t h = fnv_mix(1469598103934665603ull, res.tile_index);
  const Matrix<double>& m = *res.product;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(m(r, c)));
  return h != 0 ? h : 1;
}

/// Host-side reliability state for the tiles sent to the cards. The first
/// claimer of a tile (accumulator applying a verified result, or the host
/// absorbing it) flips `done` under the lock; only the claimer ever touches
/// that tile's block of C, so duplicated, stale and re-homed deliveries can
/// never double-apply.
struct TileTracker {
  struct Entry {
    std::shared_ptr<const blas::PackedA<double>> a;
    std::shared_ptr<const blas::PackedB<double>> b;
    int attempts = 1;
    bool done = false;
    Clock::time_point sent_at{};
  };
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::size_t, Entry> entries;
  std::deque<std::size_t> nacks;  // tiles whose transfer failed verification
  std::size_t done_count = 0;
};

}  // namespace

FunctionalOffloadStats offload_gemm_functional(
    double alpha, MatrixView<const double> a, MatrixView<const double> b,
    MatrixView<double> c, const FunctionalOffloadConfig& cfg) {
  FunctionalOffloadStats stats;
  const std::size_t k = a.cols();
  tune::Knobs knobs = cfg.knobs;
  if (cfg.tuner != nullptr) {
    if (const auto tuned = cfg.tuner->best(
            "offload_functional", tune::bucket(c.rows(), c.cols(), k))) {
      if (tuned->mt != 0) knobs.mt = tuned->mt;
      if (tuned->nt != 0) knobs.nt = tuned->nt;
      if (tuned->pack_cache_entries != 0)
        knobs.pack_cache_entries = tuned->pack_cache_entries;
      if (tuned->microkernel != 0) knobs.microkernel = tuned->microkernel;
      if (tuned->gemm_mc != 0) knobs.gemm_mc = tuned->gemm_mc;
      if (tuned->gemm_nc != 0) knobs.gemm_nc = tuned->gemm_nc;
    }
  }
  if (knobs.mt == 0) knobs.mt = 64;
  if (knobs.nt == 0) knobs.nt = 64;
  TileGrid grid(c.rows(), c.cols(), knobs.mt, knobs.nt,
                cfg.merge_partial_tiles);
  stats.tiles_total = grid.count();

  fault::Injector* const inj = cfg.injector;
  pci::BlockingQueue<TileRequest> requests(8);
  pci::BlockingQueue<TileResult> results(8);
  if (inj != nullptr) {
    requests.attach_faults(inj, fault::Site::kDmaRequest);
    requests.set_corruptor(
        [](TileRequest& r) { r.checksum ^= 1ull << 17; });
    results.attach_faults(inj, fault::Site::kDmaResult);
    results.set_corruptor(
        [](TileResult& r) { r.checksum ^= 1ull << 23; });
  }

  TileTracker trk;
  std::atomic<std::size_t> cards_tiles{0};
  std::atomic<std::size_t> host_tiles{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> checksum_failures{0};
  std::atomic<std::size_t> absorbed{0};
  std::atomic<std::size_t> cards_lost{0};
  // Cards still on the bus; only scripted deaths decrement it (clean
  // shutdown happens after the request queue is closed, when the count no
  // longer steers recovery decisions).
  std::atomic<int> cards_alive{cfg.cards};

  // Computes one card tile host-side, exactly as the host-steal path does —
  // bitwise-identical to the card's packed outer product, so re-homing a
  // tile never changes the result.
  auto host_compute = [&](std::size_t idx) {
    const Tile& t = grid.tile(idx);
    auto cb = c.block(t.r0, t.c0, t.rows, t.cols);
    blas::GemmOptions go;
    go.chunk_k = k == 0 ? 1 : k;  // one k-chunk, like the card's packed GEMM
    go.mc = knobs.gemm_mc;
    go.nc = knobs.gemm_nc;
    go.kernel = knobs.microkernel;
    blas::gemm_tiled<double>(alpha, a.block(t.r0, 0, t.rows, k),
                             b.block(0, t.c0, k, t.cols), 1.0, cb, go);
  };

  // Claims `idx` for the host (if still unclaimed) and computes it locally:
  // the graceful-degradation path for tiles a dead card can no longer serve.
  auto absorb_tile = [&](std::size_t idx) {
    {
      std::lock_guard lk(trk.mu);
      TileTracker::Entry& e = trk.entries[idx];
      if (e.done) return;
      e.done = true;
      ++trk.done_count;
    }
    host_compute(idx);
    host_tiles.fetch_add(1, std::memory_order_relaxed);
    absorbed.fetch_add(1, std::memory_order_relaxed);
    trk.cv.notify_all();
  };

  // "Coprocessor" threads: poll the request queue, verify the transfer,
  // multiply the packed tiles with the kernel they were packed for (the one
  // gemm_tiled dispatches for knobs.microkernel, so card, host-steal and
  // absorb paths all run one kernel), return the checksummed product. A
  // scripted death drops the card off the bus mid-request; the last survivor
  // closes the request queue so the host stops treating the link as up.
  std::vector<std::thread> cards;
  cards.reserve(cfg.cards);
  for (int card = 0; card < cfg.cards; ++card) {
    cards.emplace_back([&, card] {
      std::size_t processed = 0;
      while (auto req = requests.dequeue()) {
        if (inj != nullptr && inj->card_dies(card, processed)) {
          inj->note_kill(fault::Site::kDmaRequest, processed);
          cards_lost.fetch_add(1, std::memory_order_relaxed);
          if (cards_alive.fetch_sub(1) == 1) requests.close();
          return;  // the dequeued request dies with the card
        }
        ++processed;
        TileResult res;
        res.tile_index = req->tile_index;
        res.attempt = req->attempt;
        if (req->checksum != 0 && request_checksum(*req) != req->checksum) {
          res.ok = false;  // corrupted on the link: NACK, host will resend
          results.enqueue(std::move(res));
          continue;
        }
        res.product = std::make_unique<Matrix<double>>(req->rows, req->cols);
        res.product->fill(0.0);
        blas::outer_product_packed<double>(1.0, *req->a, *req->b, 0.0,
                                           res.product->view(),
                                           /*pool=*/nullptr,
                                           knobs.microkernel);
        if (req->checksum != 0) res.checksum = result_checksum(res);
        results.enqueue(std::move(res));
      }
    });
  }

  // Host accumulator thread (step 10): verify, deduplicate, fold device
  // results into C. Bad transfers become nacks for the retry loop.
  std::thread accumulator([&] {
    while (auto res = results.dequeue()) {
      const std::size_t idx = res->tile_index;
      const bool corrupted =
          !res->ok ||
          (res->checksum != 0 && result_checksum(*res) != res->checksum);
      bool claimed = false;
      {
        std::lock_guard lk(trk.mu);
        TileTracker::Entry& e = trk.entries[idx];
        if (e.done) continue;  // duplicate or stale delivery
        if (corrupted) {
          checksum_failures.fetch_add(1, std::memory_order_relaxed);
          trk.nacks.push_back(idx);
        } else {
          e.done = true;
          ++trk.done_count;
          claimed = true;
        }
      }
      if (claimed) {
        const Tile& t = grid.tile(idx);
        for (std::size_t r = 0; r < t.rows; ++r)
          for (std::size_t cc = 0; cc < t.cols; ++cc)
            c(t.r0 + r, t.c0 + cc) += alpha * (*res->product)(r, cc);
        cards_tiles.fetch_add(1, std::memory_order_relaxed);
      }
      trk.cv.notify_all();
    }
  });

  // Optional host-compute thread stealing from the lower-right corner.
  std::thread host_worker;
  if (cfg.host_steals) {
    host_worker = std::thread([&] {
      while (auto idx = grid.steal_back()) {
        host_compute(*idx);
        host_tiles.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Main thread plays the designated pack/DMA cores: steal from the front,
  // pack operands into the Knights Corner format, enqueue. The cache bounds
  // live packs to a few panels beyond the tiles in flight; a grid row's
  // A panel and a grid column's B panel are each packed exactly once, at the
  // tile geometry of the kernel gemm_tiled dispatches for the same knob.
  const blas::TileGeometry geom =
      blas::dispatched_tile<double>(knobs.microkernel);
  blas::PackCache<double> packs(
      knobs.pack_cache_entries != 0
          ? knobs.pack_cache_entries
          : 2 * grid.row_tiles() + 2 * grid.col_tiles());
  auto send = [&](std::size_t idx, int attempt,
                  std::shared_ptr<const blas::PackedA<double>> pa,
                  std::shared_ptr<const blas::PackedB<double>> pb) {
    const Tile& t = grid.tile(idx);
    TileRequest req;
    req.tile_index = idx;
    req.attempt = attempt;
    req.rows = t.rows;
    req.cols = t.cols;
    req.depth = k;
    req.a = std::move(pa);
    req.b = std::move(pb);
    if (inj != nullptr) req.checksum = request_checksum(req);
    return requests.enqueue(std::move(req));
  };

  std::size_t total_card_tiles = 0;
  while (auto idx = grid.steal_front()) {
    const Tile& t = grid.tile(*idx);
    auto pa = packs.get_a(a.block(t.r0, 0, t.rows, k), 0, geom.rows);
    auto pb = packs.get_b(b.block(0, t.c0, k, t.cols), 0, geom.cols);
    {
      std::lock_guard lk(trk.mu);
      TileTracker::Entry& e = trk.entries[*idx];
      e.a = pa;
      e.b = pb;
      e.attempts = 1;
      e.sent_at = Clock::now();
    }
    ++total_card_tiles;
    if (!send(*idx, 1, std::move(pa), std::move(pb))) {
      // Link is down (every card died): degrade to host compute.
      absorb_tile(*idx);
    }
  }

  // Reliability loop: wait for the cards to finish; with faults armed,
  // resend lost/corrupted transfers (bounded retries, exponential backoff)
  // and absorb what the cards can no longer serve.
  const auto backoff = [&](int attempts) {
    return std::chrono::duration<double>(cfg.retry_timeout_ms * 1e-3 *
                                         static_cast<double>(1 << (attempts - 1)));
  };
  for (;;) {
    std::vector<std::size_t> to_recover;
    {
      std::unique_lock lk(trk.mu);
      if (trk.done_count == total_card_tiles) break;
      if (inj == nullptr) {
        // Clean run: the link is reliable, just wait for completion.
        trk.cv.wait(lk, [&] { return trk.done_count == total_card_tiles; });
        break;
      }
      trk.cv.wait_for(lk, std::chrono::duration<double>(
                              cfg.retry_timeout_ms * 1e-3 / 2));
      while (!trk.nacks.empty()) {
        const std::size_t idx = trk.nacks.front();
        trk.nacks.pop_front();
        if (!trk.entries[idx].done) to_recover.push_back(idx);
      }
      const auto now = Clock::now();
      for (const auto& [idx, e] : trk.entries) {
        if (e.done || now - e.sent_at < backoff(e.attempts)) continue;
        if (std::find(to_recover.begin(), to_recover.end(), idx) ==
            to_recover.end())
          to_recover.push_back(idx);
      }
    }
    for (const std::size_t idx : to_recover) {
      std::shared_ptr<const blas::PackedA<double>> pa;
      std::shared_ptr<const blas::PackedB<double>> pb;
      int attempt = 0;
      {
        std::lock_guard lk(trk.mu);
        TileTracker::Entry& e = trk.entries[idx];
        if (e.done) continue;
        if (cards_alive.load() <= 0 || e.attempts > cfg.max_retries) {
          // Out of retries or out of cards: the host absorbs the tile.
          pa = nullptr;
        } else {
          attempt = ++e.attempts;
          e.sent_at = Clock::now();
          pa = e.a;
          pb = e.b;
        }
      }
      if (attempt == 0) {
        absorb_tile(idx);
      } else {
        retries.fetch_add(1, std::memory_order_relaxed);
        if (!send(idx, attempt, std::move(pa), std::move(pb)))
          absorb_tile(idx);  // queue closed between the check and the send
      }
    }
  }

  requests.close();
  for (auto& th : cards) th.join();
  if (host_worker.joinable()) host_worker.join();
  // Every card tile is accounted for (applied or absorbed); any remaining
  // queued results are stale duplicates the accumulator discards on drain.
  results.close();
  accumulator.join();

  stats.tiles_cards = cards_tiles.load();
  stats.tiles_host = host_tiles.load();
  stats.pack_hits = packs.hits();
  stats.pack_misses = packs.misses();
  stats.retries = retries.load();
  stats.checksum_failures = checksum_failures.load();
  stats.tiles_absorbed = absorbed.load();
  stats.cards_lost = cards_lost.load();
  return stats;
}

}  // namespace xphi::core
