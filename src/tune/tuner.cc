#include "tune/tuner.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>

#include "sim/machine.h"
#include "util/rng.h"

namespace xphi::tune {

namespace {

/// Search state shared by the descents: memoized evaluations, the budget,
/// the global best, and the trace.
struct SearchState {
  SearchState(const SearchSpace& s, const EvalFn& e, std::size_t b)
      : space(s), eval(e), budget(b) {}

  const SearchSpace& space;
  const EvalFn& eval;
  const std::size_t budget;
  std::map<std::vector<std::size_t>, double> cache;
  std::size_t evaluations = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_point;
  std::vector<TraceEntry> trace;

  bool exhausted() const noexcept { return evaluations >= budget; }

  /// Cost of `point`; evaluates (and traces) on first visit. nullopt when
  /// the point is unseen and the budget is spent.
  std::optional<double> cost_of(const std::vector<std::size_t>& point) {
    if (const auto it = cache.find(point); it != cache.end())
      return it->second;
    if (exhausted()) return std::nullopt;
    ++evaluations;
    const double cost = eval(space.values_at(point));
    cache.emplace(point, cost);
    const bool improved = cost < best_cost;
    if (improved) {
      best_cost = cost;
      best_point = point;
    }
    trace.push_back({space.values_at(point), cost, improved});
    return cost;
  }

  /// Coordinate descent from `start`: per dimension, evaluate every other
  /// candidate and move to the strict best (ties keep the lower index);
  /// sweep the dimensions until a full sweep makes no move.
  void descend(std::vector<std::size_t> point) {
    auto cost = cost_of(point);
    if (!cost) return;
    double current = *cost;
    bool moved = true;
    while (moved && !exhausted()) {
      moved = false;
      for (std::size_t d = 0; d < space.dims() && !exhausted(); ++d) {
        std::size_t best_idx = point[d];
        double best_c = current;
        for (std::size_t i = 0; i < space.dim(d).values.size(); ++i) {
          if (i == point[d]) continue;
          auto p = point;
          p[d] = i;
          const auto c = cost_of(p);
          if (!c) break;
          // Strict < : ascending scan keeps the lowest index on cost ties,
          // and a candidate merely equal to the current point never moves.
          if (*c < best_c) {
            best_c = *c;
            best_idx = i;
          }
        }
        if (best_idx != point[d]) {
          point[d] = best_idx;
          current = best_c;
          moved = true;
        }
      }
    }
  }
};

}  // namespace

SearchResult search(const SearchSpace& space, const EvalFn& eval,
                    const SearchOptions& options) {
  SearchResult result;
  if (space.dims() == 0) return result;
  SearchState st(space, eval,
                 static_cast<std::size_t>(std::max(1, options.budget)));

  std::vector<std::size_t> start =
      options.start.empty() ? space.default_point() : options.start;
  start.resize(space.dims(), 0);
  for (std::size_t d = 0; d < space.dims(); ++d)
    start[d] = std::min(start[d], space.dim(d).values.size() - 1);

  const auto start_cost = st.cost_of(start);
  result.start_cost = start_cost.value_or(0);
  st.descend(start);

  // Seeded restarts: the RNG stream depends only on the seed (cache hits do
  // not consume draws), so the whole search replays bit for bit.
  util::Rng rng(options.seed);
  for (int r = 0; r < options.restarts && !st.exhausted(); ++r) {
    std::vector<std::size_t> p(space.dims());
    for (std::size_t d = 0; d < space.dims(); ++d)
      p[d] = static_cast<std::size_t>(rng.next_u64() %
                                      space.dim(d).values.size());
    st.descend(p);
  }

  result.best = space.values_at(st.best_point);
  result.best_cost = st.best_cost;
  result.evaluations = st.evaluations;
  result.trace = std::move(st.trace);
  return result;
}

std::string fingerprint(const sim::MachineSpec& host,
                        const sim::MachineSpec& card) {
  // Identity = core topology + clock, not the display name: two specs that
  // model the same silicon share keys.
  char buf[128];
  std::snprintf(buf, sizeof buf, "host%dx%dc%.2fGHz+card%dx%dc%.2fGHz",
                host.sockets, host.cores_per_socket, host.freq_ghz,
                card.sockets, card.cores_per_socket, card.freq_ghz);
  return buf;
}

std::string default_fingerprint() {
  return fingerprint(sim::MachineSpec::sandy_bridge_ep(),
                     sim::MachineSpec::knights_corner());
}

}  // namespace xphi::tune
