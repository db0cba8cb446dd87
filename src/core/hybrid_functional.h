// Functional (real-numerics) single-node hybrid HPL with look-ahead.
//
// The twin of Figure 8, executed with real threads and real math: the LU
// stage loop of blas/getrf.h with its trailing update routed through one
// resident core::OffloadEngine (core/offload_functional.h), built once per
// factorization: its card participants and two-ended work stealing stay in
// one pool that serves every stage's update. Under look-ahead each stage
// updates the columns of the *next* panel first; that panel then factors on
// a concurrent "host" thread while the engine updates the rest of the
// trailing matrix. The result is residual-checked like every other driver.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/offload_functional.h"

namespace xphi::core {

enum class FunctionalScheme {
  kNoLookahead,  // Figure 8a: factor panels synchronously
  kBasic,        // Figure 8b: next panel factored async during the update
  kPipelined,    // Figure 8c: swap/solve/update pipelined over column subsets
};

struct HybridFunctionalConfig {
  std::size_t n = 256;
  std::size_t nb = 32;
  FunctionalOffloadConfig offload{};
  FunctionalScheme scheme = FunctionalScheme::kBasic;
  int pipeline_subsets = 4;  // column subsets for kPipelined
};

struct HybridFunctionalResult {
  bool ok = false;
  double residual = 0;
  std::size_t lookahead_panels = 0;  // panels factored concurrently
  std::size_t pipelined_subsets = 0;  // column subsets processed (kPipelined)
};

/// Generates the seeded HPL system, factors it with the hybrid structure,
/// solves, and returns the residual.
HybridFunctionalResult run_functional_hybrid_hpl(
    const HybridFunctionalConfig& config, std::uint64_t seed = 42);

}  // namespace xphi::core
