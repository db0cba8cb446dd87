#include "core/offload_dgemm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "core/tile_grid.h"
#include "util/flops.h"

namespace xphi::core {

namespace {

// Share of host STREAM bandwidth the designated packing cores achieve while
// copy-packing operand tiles (read source + write packed buffer).
constexpr double kPackBwFraction = 0.40;
// Fraction of the host-side C-accumulation service time (read+add+write of
// each result tile) that surfaces as a per-tile pipeline bubble on the card.
// Scales with the number of cards sharing the host (the paper's dual-card
// efficiency loss); calibrated to Figure 11's 85.4% / 83% anchors.
constexpr double kHostServiceBubbleFrac = 0.06;

struct TileTimes {
  double compute = 0;
  double transfers = 0;  // input + output DMA per steady-state cycle
  double pack = 0;
  double host_bubble = 0;  // exposed share of host accumulation service
  double cycle() const {
    return std::max({compute, transfers, pack}) + host_bubble;
  }
};

TileTimes tile_times(std::size_t mt, std::size_t nt, std::size_t kt,
                     std::size_t row_tiles, std::size_t col_tiles,
                     const sim::KncGemmModel& knc, const pci::PcieLink& link,
                     bool contended, int cards_sharing_host = 1) {
  TileTimes t;
  const int compute_cores = knc.spec().total_cores() - 1;  // 1 comm core
  t.compute = knc.gemm_seconds(mt, nt, kt, 300, /*include_packing=*/false,
                               sim::Precision::kDouble, compute_cores);
  // A tile streams per tile; the B column panel is reused down the column.
  const double in_bytes =
      8.0 * (static_cast<double>(mt) * kt +
             static_cast<double>(kt) * nt / std::max<std::size_t>(1, row_tiles));
  const double out_bytes = 8.0 * static_cast<double>(mt) * nt;
  t.transfers = link.transfer_seconds(in_bytes, contended) +
                link.transfer_seconds(out_bytes, contended);
  // Host-side packing is amortized by the pack cache: an A row-panel is
  // packed once per grid row (reused by the row's col_tiles tiles), a B
  // column panel once per column (reused down row_tiles tiles) — unlike the
  // DMA transfers, which still stream A per tile.
  const double pack_bytes =
      2.0 * 8.0 *
      (static_cast<double>(mt) * kt / std::max<std::size_t>(1, col_tiles) +
       static_cast<double>(kt) * nt / std::max<std::size_t>(1, row_tiles));
  const double host_bw = kPackBwFraction * 76.0 * 1e9;
  t.pack = pack_bytes / host_bw;
  const double accum_bytes = 3.0 * 8.0 * static_cast<double>(mt) * nt;
  t.host_bubble =
      cards_sharing_host * kHostServiceBubbleFrac * accum_bytes / host_bw;
  return t;
}

}  // namespace

std::pair<std::size_t, std::size_t> tune_tile_size(
    std::size_t m, std::size_t n, std::size_t kt, const sim::KncGemmModel& knc,
    const pci::PcieLink& link, bool contended) {
  static constexpr std::size_t kCandidates[] = {1200, 2400, 3600,
                                                4800, 7200, 9600};
  double best_t = -1;
  std::pair<std::size_t, std::size_t> best{4800, 4800};
  for (std::size_t mt : kCandidates) {
    if (mt > m && mt != kCandidates[0]) continue;
    for (std::size_t nt : kCandidates) {
      if (nt > n && nt != kCandidates[0]) continue;
      const std::size_t emt = std::min(mt, m);
      const std::size_t ent = std::min(nt, n);
      const auto rows = merged_spans(m, emt, true);
      const auto cols = merged_spans(n, ent, true);
      double total = 0;
      for (const auto& [c0, nc] : cols) {
        for (const auto& [r0, nr] : rows) {
          total += tile_times(nr, nc, kt, rows.size(), cols.size(), knc, link,
                              contended)
                       .cycle();
        }
      }
      total += link.transfer_seconds(
          8.0 * (static_cast<double>(emt) * kt + static_cast<double>(kt) * ent),
          contended);
      total += link.transfer_seconds(8.0 * emt * ent, contended);
      if (best_t < 0 || total < best_t) {
        best_t = total;
        best = {emt, ent};
      }
    }
  }
  return best;
}

OffloadDgemmResult simulate_offload_dgemm(const OffloadDgemmConfig& cfg,
                                          const sim::KncGemmModel& knc,
                                          const sim::SnbModel& snb,
                                          const pci::PcieLink& link) {
  OffloadDgemmResult res;
  if (cfg.m == 0 || cfg.n == 0 || cfg.kt == 0 || cfg.cards < 1) return res;

  // Each card owns an equal column range (socket/card interleave); the host,
  // when stealing, works backward from whichever range has most left.
  const std::size_t cols_per_card = cfg.n / cfg.cards;
  std::size_t mt = cfg.knobs.mt, nt = cfg.knobs.nt;
  if (mt == 0 || nt == 0) {
    std::tie(mt, nt) =
        tune_tile_size(cfg.m, cols_per_card, cfg.kt, knc, link,
                       cfg.contended_pcie);
  }
  mt = std::min(mt, cfg.m);
  nt = std::min(nt, std::max<std::size_t>(1, cols_per_card));

  std::vector<std::unique_ptr<TileGrid>> grids;
  grids.reserve(cfg.cards);
  for (int c = 0; c < cfg.cards; ++c) {
    const std::size_t c0 = c * cols_per_card;
    const std::size_t nc =
        c + 1 == cfg.cards ? cfg.n - c0 : cols_per_card;
    grids.push_back(
        std::make_unique<TileGrid>(cfg.m, nc, mt, nt, cfg.merge_partial_tiles));
  }

  std::size_t tiles_total = 0;
  for (const auto& g : grids) tiles_total += g->count();
  res.tiles_total = tiles_total;
  res.mt = mt;
  res.nt = nt;

  // Static split (ablation): the host takes a fixed share by peak ratio.
  std::size_t host_quota = 0;
  const double host_peak =
      cfg.host_steals && cfg.host_compute_cores > 0
          ? snb.spec().peak_gflops(sim::Precision::kDouble,
                                   cfg.host_compute_cores)
          : 0.0;
  if (cfg.host_steals && !cfg.dynamic_stealing) {
    const double knc_peak = cfg.cards * knc.spec().peak_gflops();
    host_quota = static_cast<std::size_t>(
        std::floor(tiles_total * host_peak / (host_peak + knc_peak)));
  }

  // Discrete-event simulation over entities (cards + optional host).
  struct Entity {
    double t = 0;
    bool is_host = false;
    int card = -1;
  };
  auto cmp = [](const std::pair<double, int>& a,
                const std::pair<double, int>& b) { return a.first > b.first; };
  std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                      decltype(cmp)>
      pq(cmp);
  std::vector<Entity> entities;
  for (int c = 0; c < cfg.cards; ++c) entities.push_back({0.0, false, c});
  const bool host_computes = cfg.host_steals && cfg.host_compute_cores > 0;
  if (host_computes) entities.push_back({0.0, true, -1});

  // Exposed first-input / last-output transfers per card.
  std::vector<double> card_first(cfg.cards), card_last(cfg.cards);
  for (int c = 0; c < cfg.cards; ++c) {
    card_first[c] = link.transfer_seconds(
        8.0 * (static_cast<double>(mt) * cfg.kt +
               static_cast<double>(cfg.kt) * nt),
        cfg.contended_pcie);
    card_last[c] = link.transfer_seconds(8.0 * mt * nt, cfg.contended_pcie);
  }
  auto card_tile_cycle = [&](int c, const Tile& tile) {
    const TileTimes tt = tile_times(tile.rows, tile.cols, cfg.kt,
                                    grids[c]->row_tiles(),
                                    grids[c]->col_tiles(), knc, link,
                                    cfg.contended_pcie, cfg.cards);
    res.knc_busy_seconds += tt.compute;
    return tt.cycle();
  };
  auto host_tile_seconds = [&](const Tile& tile) {
    return snb.dgemm_seconds(tile.rows, tile.cols, cfg.kt,
                             cfg.host_compute_cores);
  };

  std::vector<bool> card_started(cfg.cards, false);
  std::size_t host_taken = 0;
  for (std::size_t e = 0; e < entities.size(); ++e) pq.push({0.0, (int)e});
  double end_time = 0;
  while (!pq.empty()) {
    auto [t, ei] = pq.top();
    pq.pop();
    Entity& ent = entities[ei];
    // Under the static split the back `host_quota` tiles are reserved for
    // the host: cards may not cross into them even when idle.
    const std::size_t host_quota_left =
        cfg.dynamic_stealing ? 0 : host_quota - std::min(host_quota, host_taken);
    if (ent.is_host) {
      if (!cfg.dynamic_stealing && host_taken >= host_quota) continue;
      // Steal from the back of the fullest grid.
      int pick = -1;
      std::size_t most = 0;
      for (int c = 0; c < cfg.cards; ++c)
        if (grids[c]->remaining() > most) {
          most = grids[c]->remaining();
          pick = c;
        }
      if (pick < 0) continue;
      const auto idx = grids[pick]->steal_back();
      ++host_taken;
      ent.t = t + host_tile_seconds(grids[pick]->tile(*idx));
      end_time = std::max(end_time, ent.t);
      pq.push({ent.t, ei});
    } else {
      const int c = ent.card;
      std::size_t reserved_here = 0;
      if (host_quota_left > 0) {
        // Approximate the per-grid share of the host reservation.
        reserved_here = (host_quota_left + grids.size() - 1) / grids.size();
      }
      std::optional<std::size_t> tile;
      if (grids[c]->remaining() > reserved_here) tile = grids[c]->steal_front();
      if (!tile) {
        end_time = std::max(end_time, t + card_last[c]);  // drain last output
        continue;
      }
      double dt = card_tile_cycle(c, grids[c]->tile(*tile));
      if (!card_started[c]) {
        dt += card_first[c];  // fill the pipeline: first input exposed
        card_started[c] = true;
      }
      ent.t = t + dt;
      end_time = std::max(end_time, ent.t);
      pq.push({ent.t, ei});
    }
  }

  res.tiles_host = host_taken;
  res.seconds = end_time;
  res.exposed_transfer_seconds = card_first[0] + card_last[0];
  const double flops = util::gemm_flops(cfg.m, cfg.n, cfg.kt);
  res.gflops = util::gflops(flops, res.seconds);
  const double basis = cfg.cards * knc.spec().peak_gflops() + host_peak;
  res.efficiency = res.gflops / basis;
  return res;
}

}  // namespace xphi::core
