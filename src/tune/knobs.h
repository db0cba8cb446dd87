// The performance-knob record the offload engines share.
//
// core::OffloadDgemmConfig (the simulated offload DGEMM) and
// core::FunctionalOffloadConfig (its real-numerics twin) embed one Knobs, so
// the tile fields exist exactly once. Every field changes speed, never a bit
// of a result.
//
// Field value 0 means "not set": the engine keeps its own default.
// bench_tune sweeps these fields offline (tune/search_space.h); no engine
// looks a tuned value up at run time.
#pragma once

#include <cstddef>

namespace xphi::tune {

struct Knobs {
  // Offload C-tile extents (paper Section V-B's runtime-adaptive (Mt, Nt)).
  std::size_t mt = 0;  // 0 = engine default / runtime-adaptive
  std::size_t nt = 0;
  // blas::PackCache capacity for the functional offload engine.
  std::size_t pack_cache_entries = 0;  // 0 = derived from the tile grid
  // GEMM micro-kernel registry shape (mr*100 + nr, e.g. 608 = 6x8) and the
  // mc/nc cache blocking of blas::GemmOptions for the functional engine's
  // tile products. All three are bitwise-neutral.
  int microkernel = 0;      // 0 = auto-dispatch (widest supported)
  std::size_t gemm_mc = 0;  // 0 = unbounded
  std::size_t gemm_nc = 0;  // 0 = unbounded
};

}  // namespace xphi::tune
