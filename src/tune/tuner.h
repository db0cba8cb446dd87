// The offline tuner: model-seeded, budgeted, deterministic empirical search
// over a SearchSpace.
//
// The search engine is a coordinate descent (exact line search per
// dimension, sweeping until a full sweep stops improving) restarted from a
// fixed number of seeded random points. It is deliberately wall-clock-free:
// every decision depends only on (space, evaluation results, seed), so the
// same inputs reproduce the same trace bit for bit — the property the
// determinism tests pin. Cost is whatever the evaluation callback returns
// (lower is better). Evaluations are memoized, and only distinct points
// count against the budget.
//
// The evaluation callback is the abstraction boundary: tests and
// bench_tune's native_lu op evaluate through the src/sim cost models
// (deterministic), while its measured ops pass a wall-clock callback — same
// engine, different oracle. bench_tune is the only caller: it reports
// default vs tuned into BENCH_tune.json, and no engine looks a tuned value
// up at run time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tune/search_space.h"

namespace xphi::sim {
struct MachineSpec;
}

namespace xphi::tune {

/// Deterministic hardware fingerprint of a (host, card) pair; the machine
/// part of the solve server's LU-cache key.
std::string fingerprint(const sim::MachineSpec& host,
                        const sim::MachineSpec& card);
/// Fingerprint of the default modeled pair (SNB EP host + KNC card).
std::string default_fingerprint();

struct SearchOptions {
  /// Max distinct evaluations (memoized re-visits are free). Clamped to >= 1.
  int budget = 48;
  /// Seed of the restart stream; same seed => same trace.
  std::uint64_t seed = 1;
  /// Seeded random restarts after the initial descent.
  int restarts = 2;
  /// Start point (one candidate index per dimension), typically the
  /// analytical model's pick snapped via SearchSpace::nearest_index.
  /// Empty = the space's defaults.
  std::vector<std::size_t> start;
};

struct TraceEntry {
  std::vector<long long> values;  // knob values evaluated
  double cost = 0;
  bool improved = false;  // strictly better than everything before it
};

struct SearchResult {
  std::vector<long long> best;  // knob value per dimension
  double best_cost = 0;
  double start_cost = 0;  // cost of the (model-seeded) start point
  std::size_t evaluations = 0;
  std::vector<TraceEntry> trace;  // every evaluation, in order
};

using EvalFn = std::function<double(const std::vector<long long>&)>;

/// Searches `space` from `options.start` (default: the space's defaults).
/// The start point is evaluated first, so best_cost <= start_cost.
SearchResult search(const SearchSpace& space, const EvalFn& eval,
                    const SearchOptions& options = {});

}  // namespace xphi::tune
