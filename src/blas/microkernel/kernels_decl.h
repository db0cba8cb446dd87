// The shape family shared by the registry and every ISA kernel TU.
//
// Each shape is (Mr, Nr, TileRows): the register block is Mr x Nr and the
// packed A-tile height is TileRows (an Mr multiple near the Basic Kernel 2
// blocking of 30, so task granularity in gemm_tiled stays comparable across
// shapes). The X-macro keeps the registry rows and the per-ISA function
// tables in the same order without any runtime registration step.
//
// Accumulator vectors per shape, fp64, at the generic / avx2 / avx512
// tiers (kernels_inl.h: each C row is Nr*8 bytes split into vectors of the
// tier width, halved until it divides the row). SSE2 and AVX2 have 16
// vector registers; AVX-512F has 32 zmm but, without AVX-512VL, still only
// 16 addressable xmm/ymm.
//   3x8  — 12 xmm / 6 ymm / 3 zmm; the seed shape, fits SSE2's file.
//   4x8  — 16 xmm / 8 ymm / 4 zmm; the portable middle ground.
//   6x8  — 24 xmm / 12 ymm / 6 zmm; the AVX2 shape.
//   8x6  — 24 xmm at every tier (48-byte rows take 16-byte vectors): tall
//          variant, trades B-row width for A-column reuse; spills.
//   4x12 — 24 xmm / 12 ymm / 12 ymm (96-byte rows take 32-byte vectors at
//          avx512); wide variant, stresses B-stream bandwidth.
//   8x8  — 32 xmm / 16 ymm / 8 zmm; the AVX-512 shape.
// fp32 rows are half as wide: Nr=8 is one 32-byte vector (two xmm at the
// generic tier), Nr=12 three xmm and Nr=6 three 8-byte vectors at every
// tier.
#pragma once

#include <cstddef>

namespace xphi::blas::mk {

#define XPHI_MK_FOR_EACH_SHAPE(X) \
  X(3, 8, 30)                     \
  X(4, 8, 28)                     \
  X(6, 8, 30)                     \
  X(8, 6, 32)                     \
  X(4, 12, 28)                    \
  X(8, 8, 32)

inline constexpr std::size_t kShapeCount = 6;

/// How a kernel accumulates each C element's ascending-k chain (DESIGN.md
/// §12): kUnfused rounds a*b and then the sum, kFused rounds acc + a*b once
/// (std::fma). fp64 at the avx2/avx512 tiers is fused; fp64 at the generic
/// tier and fp32 at every tier are unfused. gemm_ref computes either.
enum class Accumulate : int { kUnfused = 0, kFused = 1 };

/// Per-shape entry points of one ISA translation unit.
template <class T>
struct Fns {
  using FullFn = void (*)(const T* a_tile, const T* b_tile, std::size_t k,
                          T alpha, T beta, T* c, std::size_t ldc);
  using MaskedFn = void (*)(const T* a_tile, const T* b_tile, std::size_t k,
                            T alpha, T beta, T* c, std::size_t ldc,
                            std::size_t rows, std::size_t cols);
  FullFn full = nullptr;
  MaskedFn masked = nullptr;
  Accumulate accumulate = Accumulate::kUnfused;
  explicit operator bool() const noexcept { return full != nullptr; }
};

template <class T>
struct IsaTable {
  Fns<T> fns[kShapeCount];  // XPHI_MK_FOR_EACH_SHAPE order
};

// One accessor pair per kernel TU. The generic TU is always compiled; the
// AVX2/AVX-512 TUs are added only when the toolchain accepts their flags,
// and registry.cc is told which ones exist via XPHI_MK_HAVE_* defines.
const IsaTable<double>& generic_table_d();
const IsaTable<float>& generic_table_f();
#if defined(XPHI_MK_HAVE_AVX2)
const IsaTable<double>& avx2_table_d();
const IsaTable<float>& avx2_table_f();
#endif
#if defined(XPHI_MK_HAVE_AVX512)
const IsaTable<double>& avx512_table_d();
const IsaTable<float>& avx512_table_f();
#endif

}  // namespace xphi::blas::mk
