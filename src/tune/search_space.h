// Declarative search spaces for bench_tune's offline sweep.
//
// A SearchSpace is an ordered list of named dimensions, each with an ordered
// candidate list and a default index. The search engine (tuner.h) works in
// index space — a point is one candidate index per dimension — so the space
// is finite, enumerable and cheap to hash; values_at() maps a point back to
// the knob values an evaluation callback consumes.
//
// A space stays only while its BENCH_tune.json row shows what the sweep is
// for (DESIGN.md §10): a tuned speedup of 1.01 or more over the default, or
// a model seed that matches the default-seeded search in fewer evaluations.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xphi::tune {

struct KnobRange {
  std::string name;
  std::vector<long long> values;  // ordered candidates
  std::size_t default_index = 0;
};

class SearchSpace {
 public:
  /// Adds a dimension. `default_value` must be one of `values` (falls back
  /// to the first candidate if not). Returns *this for chaining.
  SearchSpace& add(std::string name, std::vector<long long> values,
                   long long default_value);

  std::size_t dims() const noexcept { return dims_.size(); }
  const KnobRange& dim(std::size_t i) const { return dims_[i]; }

  /// One candidate index per dimension, all at their defaults.
  std::vector<std::size_t> default_point() const;

  /// Knob values of `point` (one index per dimension, clamped).
  std::vector<long long> values_at(const std::vector<std::size_t>& point) const;

  /// Index of the candidate in dimension `d` closest to `value` (ties go to
  /// the smaller candidate) — how a model-computed seed snaps to the space.
  std::size_t nearest_index(std::size_t d, long long value) const;

 private:
  std::vector<KnobRange> dims_;
};

/// The swept spaces, one per bench_tune op.
namespace spaces {

/// Functional offload engine: host-scale tiles plus PackCache capacity
/// (core::FunctionalOffloadConfig::knobs).
SearchSpace functional_offload();

/// Native LU super-stage regrouping: per-group core cap (powers of two up
/// to total_cores / 2) and the stage quantum between regroupings
/// (lu::model_tuned_plan).
SearchSpace superstage(int total_cores);

/// LU panel critical path: recursive-panel cutoff nb_min and the fused
/// LASWP column chunk (blas::PanelOptions).
SearchSpace panel();

/// GEMM micro-kernel co-design space: registry shape (mr*100 + nr, 0 =
/// auto-dispatch) plus the mc/kc/nc cache blocking of blas::GemmOptions
/// (0 = unbounded for mc/nc).
SearchSpace microkernel();

/// net::World collective dispatch: the tree/ring crossover (payloads above
/// it, in doubles, broadcast over the segmented ring; at or below it, the
/// binomial tree) and the ring's pipeline segment
/// (World::set_collective_crossover_doubles / set_ring_segment_doubles).
SearchSpace net();

/// The analytic starting point for spaces::microkernel(): the dispatched
/// kernel shape and blas/block_model.h's mc/kc/nc for the probed cache
/// geometry, snapped onto the space's candidate grid. Feed it to
/// SearchOptions::start — the co-design paper's point: seed the search at
/// the model's answer and spend the (smaller) budget refining, not
/// rediscovering.
std::vector<std::size_t> microkernel_seed(const SearchSpace& space);

}  // namespace spaces

}  // namespace xphi::tune
