// Declarative search spaces for the repo's performance knobs.
//
// A SearchSpace is an ordered list of named dimensions, each with an ordered
// candidate list and a default index. The search engine (tuner.h) works in
// index space — a point is one candidate index per dimension — so the space
// is finite, enumerable and cheap to hash; values_at() maps a point back to
// the knob values an evaluation callback consumes.
//
// The canonical spaces below cover the knobs that were previously hard-coded
// or ad hoc per call site: the offload (Mt, Nt) candidate table, the
// functional engine's tile and PackCache capacity, gemm_tiled's k-chunk (the
// Table II sweep), the super-stage regrouping policy, and the hybrid-HPL
// look-ahead scheme. Registering a new knob = adding a dimension (or a new
// space) here with the name knobs.h recognizes.
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

  /// Total number of points (product of dimension sizes, saturating).
  std::size_t points() const noexcept;

 private:
  std::vector<KnobRange> dims_;
};

/// Canonical spaces for the existing knobs.
namespace spaces {

/// Offload DGEMM (Mt, Nt): the paper's candidate tile table.
SearchSpace offload_tiles();

/// Functional offload engine: host-scale tiles plus PackCache capacity.
SearchSpace functional_offload();

/// gemm_tiled / outer-product panel depth k (Table II's sweep values).
SearchSpace gemm_chunk();

/// Native LU super-stage regrouping: per-group core cap (powers of two up
/// to total_cores / 2) and the stage quantum between regroupings.
SearchSpace superstage(int total_cores);

/// Hybrid HPL look-ahead scheme and pipelined column-subset count.
SearchSpace lookahead();

/// LU panel critical path: recursive-panel cutoff nb_min and the fused
/// LASWP column chunk (blas::PanelOptions).
SearchSpace panel();

/// GEMM micro-kernel co-design space: registry shape (mr*100 + nr, 0 =
/// auto-dispatch) plus the mc/kc/nc cache blocking of blas::GemmOptions
/// (0 = unbounded for mc/nc).
SearchSpace microkernel();

/// Mixed-precision HPL: the fp32 factorization's panel width (mixed_nb —
/// fp32 tiles are half the bytes, so the candidate band sits wider than the
/// fp64 nb) plus the micro-kernel shape the fp32 GEMM dispatches
/// (hpl::MixedOptions consumes the tuned record).
SearchSpace mixed();

/// Solve-server scheduling: batch coalescing window (us), LU-cache shard
/// count and total capacity, interactive lane weight, per-lane admission
/// bound (serve::ServeConfig::apply consumes the tuned record).
SearchSpace serve();

/// net::World collective dispatch: the tree/ring crossover (payloads above
/// it, in doubles, broadcast over the segmented ring; at or below it, the
/// binomial tree) and the ring's pipeline segment. Both land on the World
/// via set_collective_crossover_doubles / set_ring_segment_doubles (the
/// HPCC PTRANS and GUPS drivers forward them from their options).
SearchSpace net();

/// HPCC PTRANS: the block-cyclic block size of the transpose exchange.
SearchSpace ptrans();

/// HPCC GUPS / RandomAccess: per-destination batch coalescing and the
/// rounds-ahead look-ahead window (also the local update-queue depth).
SearchSpace gups();

/// HPCC STREAM: the ThreadPool parallel_for claiming grain in elements.
SearchSpace stream();

/// The analytic starting point for spaces::microkernel(): the dispatched
/// kernel shape and blas/block_model.h's mc/kc/nc for the probed cache
/// geometry, snapped onto the space's candidate grid. Feed it to
/// SearchOptions::start — the co-design paper's point: seed the search at
/// the model's answer and spend the (smaller) budget refining, not
/// rediscovering.
std::vector<std::size_t> microkernel_seed(const SearchSpace& space);

}  // namespace spaces

}  // namespace xphi::tune
