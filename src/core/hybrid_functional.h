// Functional (real-numerics) single-node hybrid HPL with look-ahead.
//
// The twin of Figure 8, executed with real threads and real math: the LU
// stage loop of blas/getrf.h with its trailing update routed through one
// resident core::OffloadEngine (core/offload_functional.h), built once per
// factorization: its card participants and two-ended work stealing stay in
// one pool that serves every stage's update, and the same pool runs the
// first panel, the row swaps and the TRSM. Under look-ahead each stage
// updates the columns of the *next* panel first; one card participant then
// factors that panel before it joins its card, while the engine updates the
// rest of the trailing matrix. The result is residual-checked like every
// other driver.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/offload_functional.h"

namespace xphi::core {

/// Figure 8's pipelined scheme (8c) lives in the simulator only
/// (core::Lookahead::kPipelined): on the functional path splitting the
/// update into column subsets does not pay.
enum class FunctionalScheme {
  kNoLookahead,  // Figure 8a: factor panels synchronously
  kBasic,        // Figure 8b: next panel factored beside the update
};

struct HybridFunctionalConfig {
  std::size_t n = 256;
  std::size_t nb = 32;
  FunctionalOffloadConfig offload{};
  FunctionalScheme scheme = FunctionalScheme::kBasic;
};

struct HybridFunctionalResult {
  bool ok = false;
  double residual = 0;
  std::size_t lookahead_panels = 0;  // panels factored beside the update
};

/// Generates the seeded HPL system, factors it with the hybrid structure,
/// solves, and returns the residual.
HybridFunctionalResult run_functional_hybrid_hpl(
    const HybridFunctionalConfig& config, std::uint64_t seed = 42);

}  // namespace xphi::core
