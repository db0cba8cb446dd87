#include "core/offload_functional.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blas/gemm_tiled.h"
#include "blas/pack_cache.h"
#include "core/tile_grid.h"
#include "fault/injector.h"
#include "pci/queue.h"
#include "util/thread_pool.h"

namespace xphi::core {

namespace {

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

/// A card participant's "device-memory" product block: one tile, row-major
/// with ld = tile cols. Buffers are reused across tiles and calls (Stash).
using Product = std::vector<double>;

/// The result tile coming back (step 7-9): the product block, to be
/// accumulated into C by the host. Move-only, so the result queue never
/// replays one (an injected duplicate there delivers it once).
struct TileResult {
  std::size_t tile_index = 0;
  int attempt = 1;
  bool ok = true;  // false: the request arrived corrupted (NACK)
  std::uint64_t checksum = 0;  // over the product payload (0 = unchecked)
  std::unique_ptr<Product> product;
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
  for (const double v : *res.product)
    h = fnv_mix(h, std::bit_cast<std::uint64_t>(v));
  return h != 0 ? h : 1;
}

/// Host-side reliability state for the tiles sent to the cards. The first
/// claimer of a tile (a participant folding a verified result, or the host
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
  /// Tiles sent to the cards; unknown (max) until the host has sent them
  /// all. A fold that completes the last one wakes the host.
  std::size_t card_tiles = static_cast<std::size_t>(-1);
};

/// A worker's spare product buffers. It takes the buffer for each card tile
/// from here and keeps the buffers of the results it folds, so a steady
/// stream of tiles allocates nothing.
using Stash = std::vector<std::unique_ptr<Product>>;
constexpr std::size_t kMaxSpares = 4;

/// The config's knobs with an unset tile extent at its 64 default (tile
/// size and cache capacity change throughput, never a bit of the result).
tune::Knobs resolve_knobs(const FunctionalOffloadConfig& cfg) {
  tune::Knobs knobs = cfg.knobs;
  if (knobs.mt == 0) knobs.mt = 64;
  if (knobs.nt == 0) knobs.nt = 64;
  return knobs;
}

/// Workers of a resident engine: every core but the caller's, and at least
/// one participant per card.
std::size_t resident_workers(int cards) {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::max<std::size_t>(static_cast<std::size_t>(cards),
                               cores > 1 ? cores - 1 : 0);
}

/// One call's shared state: the tile grid, the DMA queues, the
/// reliability tracker and the counters every participant updates.
class Call {
 public:
  Call(double alpha, MatrixView<const double> a, MatrixView<const double> b,
       MatrixView<double> c, const FunctionalOffloadConfig& cfg,
       const tune::Knobs& knobs)
      : alpha_(alpha), a_(a), b_(b), c_(c), k_(a.cols()), cfg_(cfg),
        knobs_(knobs), inj_(cfg.injector),
        grid_(c.rows(), c.cols(), knobs.mt, knobs.nt),
        cards_(std::make_unique<CardState[]>(cfg.cards)),
        cards_alive_(cfg.cards) {
    if (inj_ != nullptr) {
      for (int i = 0; i < cfg.cards; ++i) {
        cards_[i].requests.attach_faults(inj_, fault::Site::kDmaRequest);
        cards_[i].requests.set_corruptor(
            [](TileRequest& r) { r.checksum ^= 1ull << 17; });
      }
      results_.attach_faults(inj_, fault::Site::kDmaResult);
      results_.set_corruptor(
          [](TileResult& r) { r.checksum ^= 1ull << 23; });
    }
    trk_.entries.reserve(grid_.count());
  }

  /// Worker `w` of `workers`: with host_steals the last worker first steals
  /// tiles from the lower-right corner and computes them in place; every
  /// worker then serves card w % cards.
  void worker(std::size_t w, std::size_t workers, Stash& stash) {
    if (cfg_.host_steals && w + 1 == workers) {
      while (auto idx = grid_.steal_back()) {
        host_compute(*idx);
        host_tiles_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    card(static_cast<int>(w % static_cast<std::size_t>(cfg_.cards)), stash);
  }

  /// The caller plays the designated pack/DMA cores: steal from the front,
  /// pack operands into the Knights Corner format, enqueue; then run the
  /// reliability loop until every card tile is applied or absorbed, and
  /// close the request queues, which releases the card participants.
  void host();

  FunctionalOffloadStats stats() const {
    FunctionalOffloadStats st;
    st.tiles_total = grid_.count();
    st.tiles_cards = cards_tiles_.load();
    st.tiles_host = host_tiles_.load();
    st.pack_hits = pack_hits_;
    st.pack_misses = pack_misses_;
    st.retries = retries_.load();
    st.checksum_failures = checksum_failures_.load();
    st.tiles_absorbed = absorbed_.load();
    st.cards_lost = cards_lost_.load();
    return st;
  }

 private:
  /// Per-card state of this call: the card's request queue (each card has
  /// its own, as each card maps its own ring) and its scripted death, which
  /// is per call: the count of requests the card's participants dequeued
  /// starts at zero.
  struct CardState {
    pci::BlockingQueue<TileRequest> requests{8};
    std::atomic<std::size_t> dequeued{0};
    std::atomic<bool> dead{false};
  };

  void card(int card, Stash& stash);
  void serve(const TileRequest& req, Stash& stash);
  void fold(TileResult res, Stash& stash);
  bool send(std::size_t idx, int attempt,
            std::shared_ptr<const blas::PackedA<double>> pa,
            std::shared_ptr<const blas::PackedB<double>> pb);
  bool enqueue_on_a_live_card(const TileRequest& req);
  void host_compute(std::size_t idx);
  void absorb_tile(std::size_t idx);

  const double alpha_;
  const MatrixView<const double> a_, b_;
  const MatrixView<double> c_;
  const std::size_t k_;
  const FunctionalOffloadConfig& cfg_;
  const tune::Knobs knobs_;
  fault::Injector* const inj_;
  TileGrid grid_;
  pci::BlockingQueue<TileResult> results_{8};
  TileTracker trk_;
  std::unique_ptr<CardState[]> cards_;
  // Cards still on the bus; only scripted deaths decrement it (clean
  // shutdown happens after the request queues are closed, when the count no
  // longer steers recovery decisions).
  std::atomic<int> cards_alive_;
  std::size_t sends_ = 0;  // rotates ties between equally loaded cards
  std::atomic<std::size_t> cards_tiles_{0};
  std::atomic<std::size_t> host_tiles_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> checksum_failures_{0};
  std::atomic<std::size_t> absorbed_{0};
  std::atomic<std::size_t> cards_lost_{0};
  std::size_t pack_hits_ = 0, pack_misses_ = 0;  // written by host() only
};

// Computes one card tile host-side, exactly as the host-steal path does —
// bitwise-identical to the card's packed outer product, so re-homing a
// tile never changes the result.
void Call::host_compute(std::size_t idx) {
  const Tile& t = grid_.tile(idx);
  auto cb = c_.block(t.r0, t.c0, t.rows, t.cols);
  blas::GemmOptions go;
  go.chunk_k = k_ == 0 ? 1 : k_;  // one k-chunk, like the card's packed GEMM
  go.mc = knobs_.gemm_mc;
  go.nc = knobs_.gemm_nc;
  go.kernel = knobs_.microkernel;
  blas::gemm_tiled<double>(alpha_, a_.block(t.r0, 0, t.rows, k_),
                           b_.block(0, t.c0, k_, t.cols), 1.0, cb, go);
}

// Claims `idx` for the host (if still unclaimed) and computes it locally:
// the graceful-degradation path for tiles a dead card can no longer serve.
void Call::absorb_tile(std::size_t idx) {
  {
    std::lock_guard lk(trk_.mu);
    TileTracker::Entry& e = trk_.entries[idx];
    if (e.done) return;
    e.done = true;
    ++trk_.done_count;
  }
  host_compute(idx);
  host_tiles_.fetch_add(1, std::memory_order_relaxed);
  absorbed_.fetch_add(1, std::memory_order_relaxed);
}

// A card participant: poll the request queue, verify the transfer, multiply
// the packed tiles with the kernel they were packed for (the one gemm_tiled
// dispatches for knobs.microkernel, so card, host-steal and absorb paths all
// run one kernel), return the checksummed product, then fold what is
// queued. A scripted death drops the card off the bus mid-request and
// closes its request queue: the requests still in it, the one the dying
// participant holds and any other of the card's participants holds are
// lost (the retry timeout resends them to a surviving card), and the host
// sends nothing more to the card.
void Call::card(int card, Stash& stash) {
  CardState& cs = cards_[card];
  while (!cs.dead.load(std::memory_order_acquire)) {
    auto req = cs.requests.dequeue();
    if (!req) return;
    if (inj_ != nullptr) {
      const std::size_t seq =
          cs.dequeued.fetch_add(1, std::memory_order_relaxed);
      if (inj_->card_dies(card, seq)) {
        if (!cs.dead.exchange(true, std::memory_order_acq_rel)) {
          inj_->note_kill(fault::Site::kDmaRequest, seq);
          cards_lost_.fetch_add(1, std::memory_order_relaxed);
          cards_alive_.fetch_sub(1);
          cs.requests.close();
        }
        return;  // the dequeued request dies with the card
      }
    }
    serve(*req, stash);
    // Every participant drains the result queue right after its own
    // enqueue, so a result never waits on a participant that is blocked,
    // and a full result queue always has a drainer on its way.
    while (auto res = results_.try_dequeue()) fold(std::move(*res), stash);
  }
}

void Call::serve(const TileRequest& req, Stash& stash) {
  TileResult res;
  res.tile_index = req.tile_index;
  res.attempt = req.attempt;
  if (req.checksum != 0 && request_checksum(req) != req.checksum) {
    res.ok = false;  // corrupted on the link: NACK, host will resend
    results_.enqueue(std::move(res));
    return;
  }
  if (stash.empty()) {
    res.product = std::make_unique<Product>();
  } else {
    res.product = std::move(stash.back());
    stash.pop_back();
  }
  // beta = 0 still reads the buffer (0 * NaN is NaN): zero it before reuse.
  res.product->assign(req.rows * req.cols, 0.0);
  blas::outer_product_packed<double>(
      1.0, *req.a, *req.b, 0.0,
      MatrixView<double>(res.product->data(), req.rows, req.cols, req.cols),
      /*pool=*/nullptr, knobs_.microkernel);
  if (req.checksum != 0) res.checksum = result_checksum(res);
  results_.enqueue(std::move(res));
}

// Step 10 on a card participant: verify, deduplicate, fold a device result
// into C. Bad transfers become nacks for the host's retry loop.
void Call::fold(TileResult res, Stash& stash) {
  const std::size_t idx = res.tile_index;
  const bool corrupted =
      !res.ok || (res.checksum != 0 && result_checksum(res) != res.checksum);
  bool claimed = false, wake = false;
  {
    std::lock_guard lk(trk_.mu);
    TileTracker::Entry& e = trk_.entries[idx];
    if (!e.done) {  // else: duplicate or stale delivery
      if (corrupted) {
        checksum_failures_.fetch_add(1, std::memory_order_relaxed);
        trk_.nacks.push_back(idx);
        wake = true;
      } else {
        e.done = true;
        ++trk_.done_count;
        claimed = true;
        wake = trk_.done_count == trk_.card_tiles;
      }
    }
  }
  if (claimed) {
    // c + alpha * p per element: card tiles stay bitwise equal to the
    // gemm_tiled tiles the host steals and absorbs.
    const Tile& t = grid_.tile(idx);
    const double* p = res.product->data();
    for (std::size_t r = 0; r < t.rows; ++r) {
      double* crow = c_.row(t.r0 + r) + t.c0;
      const double* prow = p + r * t.cols;
      for (std::size_t cc = 0; cc < t.cols; ++cc)
        crow[cc] += alpha_ * prow[cc];
    }
    cards_tiles_.fetch_add(1, std::memory_order_relaxed);
  }
  if (wake) trk_.cv.notify_all();
  if (res.product != nullptr && stash.size() < kMaxSpares)
    stash.push_back(std::move(res.product));
}

bool Call::send(std::size_t idx, int attempt,
                std::shared_ptr<const blas::PackedA<double>> pa,
                std::shared_ptr<const blas::PackedB<double>> pb) {
  const Tile& t = grid_.tile(idx);
  TileRequest req;
  req.tile_index = idx;
  req.attempt = attempt;
  req.rows = t.rows;
  req.cols = t.cols;
  req.depth = k_;
  req.a = std::move(pa);
  req.b = std::move(pb);
  if (inj_ != nullptr) req.checksum = request_checksum(req);
  return enqueue_on_a_live_card(req);
}

// Routes a request to the live card with the shortest request queue; ties
// rotate, so every live card is offered work even when another drains its
// queue at once. A card that dies between the pick and the enqueue is
// skipped; false once no card is left.
bool Call::enqueue_on_a_live_card(const TileRequest& req) {
  const std::size_t cards = static_cast<std::size_t>(cfg_.cards);
  const std::size_t first = sends_++ % cards;
  for (;;) {
    CardState* pick = nullptr;
    std::size_t pick_size = 0;
    for (std::size_t j = 0; j < cards; ++j) {
      CardState& cs = cards_[(first + j) % cards];
      if (cs.dead.load(std::memory_order_acquire)) continue;
      const std::size_t size = cs.requests.size();
      if (pick == nullptr || size < pick_size) {
        pick = &cs;
        pick_size = size;
      }
    }
    if (pick == nullptr) return false;
    if (pick->requests.enqueue(req)) return true;
  }
}

void Call::host() {
  // The cache bounds live packs to a few panels beyond the tiles in flight;
  // a grid row's A panel and a grid column's B panel are each packed exactly
  // once, at the tile geometry of the kernel gemm_tiled dispatches for the
  // same knob.
  const blas::TileGeometry geom =
      blas::dispatched_tile<double>(knobs_.microkernel);
  blas::PackCache<double> packs(
      knobs_.pack_cache_entries != 0
          ? knobs_.pack_cache_entries
          : 2 * grid_.row_tiles() + 2 * grid_.col_tiles());
  std::size_t sent = 0;
  while (auto idx = grid_.steal_front()) {
    const Tile& t = grid_.tile(*idx);
    auto pa = packs.get_a(a_.block(t.r0, 0, t.rows, k_), 0, geom.rows);
    auto pb = packs.get_b(b_.block(0, t.c0, k_, t.cols), 0, geom.cols);
    {
      std::lock_guard lk(trk_.mu);
      TileTracker::Entry& e = trk_.entries[*idx];
      e.a = pa;
      e.b = pb;
      e.attempts = 1;
      e.sent_at = Clock::now();
    }
    ++sent;
    if (!send(*idx, 1, std::move(pa), std::move(pb))) {
      // Link is down (every card died): degrade to host compute.
      absorb_tile(*idx);
    }
  }
  pack_hits_ = packs.hits();
  pack_misses_ = packs.misses();

  // Reliability loop: wait for the cards to finish; with faults armed,
  // resend lost/corrupted transfers (bounded retries, exponential backoff)
  // and absorb what the cards can no longer serve.
  const auto backoff = [&](int attempts) {
    return std::chrono::duration<double>(
        cfg_.retry_timeout_ms * 1e-3 *
        static_cast<double>(1 << (attempts - 1)));
  };
  {
    std::lock_guard lk(trk_.mu);
    trk_.card_tiles = sent;
  }
  for (;;) {
    std::vector<std::size_t> to_recover;
    {
      std::unique_lock lk(trk_.mu);
      if (trk_.done_count == sent) break;
      if (inj_ == nullptr) {
        // Clean run: the link is reliable, just wait for completion.
        trk_.cv.wait(lk, [&] { return trk_.done_count == sent; });
        break;
      }
      trk_.cv.wait_for(lk, std::chrono::duration<double>(
                               cfg_.retry_timeout_ms * 1e-3 / 2));
      while (!trk_.nacks.empty()) {
        const std::size_t idx = trk_.nacks.front();
        trk_.nacks.pop_front();
        if (!trk_.entries[idx].done) to_recover.push_back(idx);
      }
      const auto now = Clock::now();
      for (const auto& [idx, e] : trk_.entries) {
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
        std::lock_guard lk(trk_.mu);
        TileTracker::Entry& e = trk_.entries[idx];
        if (e.done) continue;
        if (cards_alive_.load() > 0 && e.attempts <= cfg_.max_retries) {
          attempt = ++e.attempts;
          e.sent_at = Clock::now();
          pa = e.a;
          pb = e.b;
        }
        // else: out of retries or out of cards, the host absorbs the tile.
      }
      if (attempt == 0) {
        absorb_tile(idx);
      } else {
        retries_.fetch_add(1, std::memory_order_relaxed);
        if (!send(idx, attempt, std::move(pa), std::move(pb)))
          absorb_tile(idx);  // queue closed between the check and the send
      }
    }
  }
  // Every card tile is accounted for (applied or absorbed). Card
  // participants drain what is still queued — stale duplicates and resends,
  // discarded on fold — and return.
  for (int i = 0; i < cfg_.cards; ++i) cards_[i].requests.close();
}

}  // namespace

struct OffloadEngine::Resident {
  explicit Resident(std::size_t workers) : pool(workers), spares(pool.size()) {}
  util::ThreadPool pool;
  std::vector<Stash> spares;  // one per worker
};

OffloadEngine::OffloadEngine(const FunctionalOffloadConfig& config)
    : OffloadEngine(config, config.cards >= 1 ? resident_workers(config.cards)
                                              : 0) {}

OffloadEngine::OffloadEngine(const FunctionalOffloadConfig& config,
                             std::size_t workers)
    : config_(config) {
  if (config_.cards < 1)
    throw std::invalid_argument("OffloadEngine: cards must be >= 1");
  resident_ = std::make_unique<Resident>(workers);
}

OffloadEngine::~OffloadEngine() = default;

std::size_t OffloadEngine::workers() const noexcept {
  return resident_->pool.size();
}

util::ThreadPool& OffloadEngine::pool() noexcept { return resident_->pool; }

FunctionalOffloadStats OffloadEngine::gemm(double alpha,
                                           MatrixView<const double> a,
                                           MatrixView<const double> b,
                                           MatrixView<double> c) {
  return gemm(alpha, a, b, c, nullptr);
}

FunctionalOffloadStats OffloadEngine::gemm(
    double alpha, MatrixView<const double> a, MatrixView<const double> b,
    MatrixView<double> c, const std::function<void()>& beside) {
  Call call(alpha, a, b, c, config_, resolve_knobs(config_));
  Resident& res = *resident_;
  const std::size_t workers = res.pool.size();
  // A throw must not leave the dispatch while the other participants still
  // use `call`, so it is forwarded after the join.
  std::exception_ptr beside_error;
  res.pool.run_with_caller([&](std::size_t p) {
    if (p == workers) {
      call.host();
      return;
    }
    if (p == 0 && beside) {
      try {
        beside();
      } catch (...) {
        beside_error = std::current_exception();
      }
    }
    call.worker(p, workers, res.spares[p]);
  });
  if (beside_error) std::rethrow_exception(beside_error);
  return call.stats();
}

FunctionalOffloadStats offload_gemm_functional(
    double alpha, MatrixView<const double> a, MatrixView<const double> b,
    MatrixView<double> c, const FunctionalOffloadConfig& config) {
  // A one-shot engine starts no more workers than the call can keep busy:
  // one per tile, but at least one per card.
  std::size_t workers = 0;
  if (config.cards >= 1) {
    const tune::Knobs knobs = resolve_knobs(config);
    const std::size_t tiles = ((c.rows() + knobs.mt - 1) / knobs.mt) *
                              ((c.cols() + knobs.nt - 1) / knobs.nt);
    workers = std::min(resident_workers(config.cards),
                       std::max<std::size_t>(config.cards, tiles));
  }
  OffloadEngine engine(config, workers);
  return engine.gemm(alpha, a, b, c);
}

}  // namespace xphi::core
