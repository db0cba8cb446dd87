// Mixed-precision HPL (HPL-AI style) on the shared-memory drivers: demote A
// to fp32, factor through the float instantiation of the blocked / DAG LU
// stack (the float microkernel tables, with fp32-sized mc/kc/nc from the
// analytic cache model), then recover the fp64 answer by iterative
// refinement:
//
//   x0 = U32^-1 L32^-1 P b          (solve through the fp32 factors)
//   repeat: r = b - A x   in fp64   (A is the original fp64 matrix)
//           d = U32^-1 L32^-1 P r   (correction through the fp32 factors)
//           x += d
//
// on a fixed deterministic schedule until the standard scaled residual
// ||Ax-b||_oo / (eps64 * (||A||_oo ||x||_oo + ||b||_oo) * N) passes the SAME
// gate as fp64 HPL (blas::kHplResidualThreshold — no relaxation; eps is
// fp64's). Every step is fixed-order scalar arithmetic, so the whole solve
// is bitwise-reproducible: the refinement trace (the scaled residual before
// each correction) is part of the result and asserted identical under fault
// injection. Where the refinement stalls at its cap, solve_mixed and the
// solve server do what LAPACK's DSGESV does: factor A in fp64 and solve
// (refine_mixed_or_fp64).
//
// The distributed twin lives in hpl/distributed.cc (Precision::kMixed); the
// solve server factors through the same path to halve its cache bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/matrix.h"

namespace xphi::util {
class ThreadPool;
}

namespace xphi::hpl {

struct MixedOptions {
  std::size_t nb = 64;
  /// Trailing-GEMM pool of the blocked fp32 factorization; null = serial.
  util::ThreadPool* pool = nullptr;
  /// Correction-solve cap of the deterministic refinement schedule. fp32
  /// factors of the well-conditioned HPL matrix converge in 1-3 steps; the
  /// cap only bounds pathological inputs (result.ok = false when hit).
  int max_refine_iters = 30;
};

/// fp32 LU factors of the demoted matrix (L\U in place + absolute pivots) —
/// half the bytes of the fp64 factorization, which is what doubles the solve
/// server's effective cache capacity.
struct MixedFactors {
  util::Matrix<float> lu;
  std::vector<std::size_t> ipiv;
};

struct MixedSolveResult {
  bool ok = false;
  /// Final scaled fp64 residual — exactly blas::hpl_residual<double> of the
  /// returned x against the original A and b.
  double residual = 0;
  /// Correction solves applied (not counting the initial fp32 solve).
  int iterations = 0;
  /// Scaled residual evaluated before each correction plus the final value;
  /// bitwise-stable for a fixed input, so chaos runs assert it verbatim.
  std::vector<double> trace;
  std::vector<double> x;
  /// Demote + fp32 factorization wall-clock (the stage the bench gates
  /// against the fp64 factorization) and the initial-solve + refinement
  /// wall-clock.
  double factor_seconds = 0;
  double refine_seconds = 0;
};

/// Demotes `a` to fp32 and factors it in place with the blocked driver.
/// Returns false on a zero pivot.
bool factor_mixed(util::MatrixView<const double> a, MixedFactors& out,
                  const MixedOptions& options = {});

/// Initial fp32 solve + fp64 iterative refinement against the original
/// matrix, given already-computed fp32 factors. Deterministic.
MixedSolveResult refine_mixed(util::MatrixView<const double> a,
                              std::span<const double> b,
                              const MixedFactors& factors,
                              const MixedOptions& options = {});

/// refine_mixed, and where it stalls at the cap, LAPACK DSGESV's way out: A
/// is factored in fp64 (getrf_blocked with options.nb and options.pool) and
/// the system solved through those factors. The fp64 residual then gates
/// `ok` and ends the trace, so a fallback shows as a trace two entries
/// longer than `iterations`, which stays the refinement's count; its time
/// goes to refine_seconds.
MixedSolveResult refine_mixed_or_fp64(util::MatrixView<const double> a,
                                      std::span<const double> b,
                                      const MixedFactors& factors,
                                      const MixedOptions& options = {});

/// End-to-end mixed solve of A x = b (factor_mixed + refine_mixed_or_fp64),
/// with the stage timings split out for the bench emitter.
MixedSolveResult solve_mixed(util::MatrixView<const double> a,
                             std::span<const double> b,
                             const MixedOptions& options = {});

/// Convenience: generates the seeded HPL system (util::hpl_entry matrix,
/// Rng(seed ^ 0xb0b) right-hand side — the same system every other driver
/// uses) and runs solve_mixed.
MixedSolveResult solve_mixed_seeded(std::size_t n, std::uint64_t seed = 42,
                                    const MixedOptions& options = {});

}  // namespace xphi::hpl
