// Tests for the runtime-dispatched micro-kernel registry (DESIGN.md §12):
// per-shape bitwise identity against the reference GEMM of the kernel's own
// contract (fused fp64 at the FMA tiers, unfused elsewhere) across ragged
// edges, forced dispatch of every registered shape, the analytic block
// model's cache-fit invariants, and the bitwise-neutrality guarantees the
// LU drivers rely on (kernel shape, mc/nc blocking, TRSM register rank).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/block_model.h"
#include "blas/gemm_ref.h"
#include "blas/gemm_tiled.h"
#include "blas/lu_kernels.h"
#include "blas/microkernel/cpu_features.h"
#include "blas/microkernel/registry.h"
#include "util/aligned.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace xphi::blas {
namespace {

using util::Matrix;
using util::MatrixView;

template <class T>
void fill_random(MatrixView<T> m, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      m(r, c) = static_cast<T>(rng.next_centered());
}

template <class T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

template <class T>
bool bitwise_equal(MatrixView<T> a, MatrixView<T> b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (std::bit_cast<Bits<T>>(a(r, c)) != std::bit_cast<Bits<T>>(b(r, c)))
        return false;
  return true;
}

/// gemm_tiled with the given forced kernel spec, single k-chunk (chunk_k
/// >= K keeps the accumulation order identical to gemm_ref).
template <class T = double>
Matrix<T> run_forced(const std::string& spec, std::size_t m, std::size_t n,
                     std::size_t k, std::uint64_t seed) {
  Matrix<T> a(m, k), b(k, n), c(m, n);
  fill_random<T>(a.view(), seed);
  fill_random<T>(b.view(), seed ^ 0x51);
  fill_random<T>(c.view(), seed ^ 0xc3);
  GemmOptions go;
  go.chunk_k = k == 0 ? 1 : k;
  go.kernel_spec = spec.c_str();
  gemm_tiled<T>(T(1.5), a.view(), b.view(), T(-0.5), c.view(), go);
  return c;
}

template <class T = double>
Matrix<T> run_ref(std::size_t m, std::size_t n, std::size_t k,
                  std::uint64_t seed, mk::Accumulate contract) {
  Matrix<T> a(m, k), b(k, n), c(m, n);
  fill_random<T>(a.view(), seed);
  fill_random<T>(b.view(), seed ^ 0x51);
  fill_random<T>(c.view(), seed ^ 0xc3);
  gemm_ref<T>(T(1.5), a.view(), b.view(), T(-0.5), c.view(), contract);
  return c;
}

TEST(MicrokernelRegistry, RegistersEveryShape) {
  const auto& reg = mk::registry<double>();
  ASSERT_EQ(reg.size(), mk::kShapeCount);
  const int expected_ids[] = {308, 408, 608, 806, 412, 808};
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(reg[i].shape.id, expected_ids[i]);
    EXPECT_EQ(reg[i].shape.id,
              static_cast<int>(reg[i].shape.mr * 100 + reg[i].shape.nr));
    // The pack tile height is always a multiple of the register block.
    EXPECT_EQ(reg[i].shape.tile_rows % reg[i].shape.mr, 0u);
    // The generic tier is compiled unconditionally: every shape has it.
    EXPECT_TRUE(
        static_cast<bool>(reg[i].variants[static_cast<int>(mk::Isa::kGeneric)]))
        << reg[i].shape.name;
  }
  // float mirrors double.
  EXPECT_EQ(mk::registry<float>().size(), mk::kShapeCount);
}

TEST(MicrokernelRegistry, ForcedDispatchEveryShape) {
  for (const auto& k : mk::registry<double>()) {
    // Knob-id forcing (the `microkernel` knob path). The env pin would win
    // over the id by design, so only assert the id path with no pin active.
    if (mk::env_override_spec().empty()) {
      const auto sel = mk::select_kernel<double>(k.shape.id);
      ASSERT_TRUE(static_cast<bool>(sel)) << k.shape.name;
      EXPECT_EQ(sel.id(), k.shape.id);
      EXPECT_EQ(sel.mr(), k.shape.mr);
      EXPECT_EQ(sel.nr(), k.shape.nr);
    }
    // Spec forcing is env-free and must pin both shape and tier.
    const std::string spec = std::string(k.shape.name) + "@generic";
    const auto forced = mk::select_kernel_spec<double>(spec);
    ASSERT_TRUE(forced.has_value()) << spec;
    EXPECT_EQ(forced->id(), k.shape.id);
    EXPECT_EQ(forced->isa, mk::Isa::kGeneric);
    EXPECT_EQ(forced->name(), spec);
  }
}

TEST(MicrokernelRegistry, FloatForcedDispatchEveryShape) {
  // The fp32 table carries the same six shapes as fp64; every one must be
  // reachable through both the knob-id path and the env-free spec
  // path (the mixed solver forces kernels through exactly these).
  for (const auto& k : mk::registry<float>()) {
    if (mk::env_override_spec().empty()) {
      const auto sel = mk::select_kernel<float>(k.shape.id);
      ASSERT_TRUE(static_cast<bool>(sel)) << k.shape.name;
      EXPECT_EQ(sel.id(), k.shape.id);
      EXPECT_EQ(sel.mr(), k.shape.mr);
      EXPECT_EQ(sel.nr(), k.shape.nr);
    }
    const std::string spec = std::string(k.shape.name) + "@generic";
    const auto forced = mk::select_kernel_spec<float>(spec);
    ASSERT_TRUE(forced.has_value()) << spec;
    EXPECT_EQ(forced->id(), k.shape.id);
    EXPECT_EQ(forced->isa, mk::Isa::kGeneric);
    EXPECT_EQ(forced->name(), spec);
  }
}

TEST(MicrokernelRegistry, SpecParsing) {
  EXPECT_FALSE(mk::select_kernel_spec<double>("bogus").has_value());
  EXPECT_FALSE(mk::select_kernel_spec<double>("x8").has_value());
  EXPECT_FALSE(mk::select_kernel_spec<double>("3x").has_value());
  EXPECT_FALSE(mk::select_kernel_spec<double>("3x8@mmx").has_value());
  EXPECT_FALSE(mk::select_kernel_spec<double>("9x9").has_value());

  const auto auto_generic = mk::select_kernel_spec<double>("auto@generic");
  ASSERT_TRUE(auto_generic.has_value());
  EXPECT_EQ(auto_generic->id(), 308);  // the generic tier's preferred shape
  EXPECT_EQ(auto_generic->isa, mk::Isa::kGeneric);

  const auto plain = mk::select_kernel_spec<double>("auto");
  ASSERT_TRUE(plain.has_value());  // widest host tier, whatever it is
}

TEST(MicrokernelRegistry, SelectForTileMatchesPackGeometry) {
  // The default pack layout (30 x 8) is served by the 3x8 and 6x8 shapes;
  // the picked one must match the geometry exactly.
  const auto sel = mk::select_for_tile<double>(30, 8);
  ASSERT_TRUE(static_cast<bool>(sel));
  EXPECT_EQ(sel.tile_rows(), 30u);
  EXPECT_EQ(sel.nr(), 8u);
  EXPECT_TRUE(sel.mr() == 3 || sel.mr() == 6);

  const auto pinned = mk::select_for_tile<double>(28, 8, 408);
  if (mk::env_override_spec().empty()) {
    ASSERT_TRUE(static_cast<bool>(pinned));
    EXPECT_EQ(pinned.id(), 408);
  }

  // No registered shape packs 17-row tiles: the caller keeps its own path.
  EXPECT_FALSE(static_cast<bool>(mk::select_for_tile<double>(17, 8)));
}

/// Run only when ctest launches this binary with XPHI_MICROKERNEL set (the
/// microkernel_env_pin entry in tests/CMakeLists.txt): the env pin must
/// beat the `microkernel` knob id.
TEST(MicrokernelRegistry, EnvPinBeatsKnob) {
  if (mk::env_override_spec().empty())
    GTEST_SKIP() << "XPHI_MICROKERNEL not set for this run";
  const auto pinned = mk::select_kernel_spec<double>(mk::env_override_spec());
  ASSERT_TRUE(pinned.has_value()) << mk::env_override_spec();
  for (const int id : {0, 308, 808}) {
    const auto sel = mk::select_kernel<double>(id);
    ASSERT_TRUE(static_cast<bool>(sel));
    EXPECT_EQ(sel.id(), pinned->id()) << "knob id " << id;
    EXPECT_EQ(sel.isa, pinned->isa);
  }
}

/// Widest ISA tier this host can execute.
mk::Isa host_tier() {
  const auto& f = mk::host_cpu_features();
  if (f.avx512f) return mk::Isa::kAvx512;
  if (f.avx2 && f.fma) return mk::Isa::kAvx2;
  return mk::Isa::kGeneric;
}

/// Whether this build and host run the avx2 tier, the narrowest fused one.
bool runs_fused_tier() {
  const auto sel = mk::select_kernel_spec<double>("8x8@avx2");
  return host_tier() != mk::Isa::kGeneric && sel.has_value() &&
         sel->isa == mk::Isa::kAvx2;
}

/// The invariant the packed-operand callers (offload engine, DAG LU) rely
/// on: operands packed at dispatched_tile(id) and dispatched through
/// select_for_tile(..., id) run the kernel gemm_tiled picks for that id.
template <class T>
void expect_tile_round_trip() {
  std::vector<int> ids{0};
  for (const auto& k : mk::registry<T>()) ids.push_back(k.shape.id);
  for (const int id : ids) {
    const mk::Selection<T> want = mk::select_kernel<T>(id);
    ASSERT_TRUE(static_cast<bool>(want)) << "knob id " << id;
    const TileGeometry tile = dispatched_tile<T>(id);
    EXPECT_EQ(tile.rows, want.tile_rows()) << "knob id " << id;
    EXPECT_EQ(tile.cols, want.nr()) << "knob id " << id;
    const mk::Selection<T> got = mk::select_for_tile<T>(tile.rows, tile.cols,
                                                        id);
    ASSERT_TRUE(static_cast<bool>(got)) << "knob id " << id;
    EXPECT_EQ(got.id(), want.id()) << "knob id " << id;
    EXPECT_EQ(got.isa, want.isa) << "knob id " << id;
  }
}

/// Unpinned, this covers the widest host tier; the
/// microkernel_tile_roundtrip_<tier> ctest entries re-run it with
/// XPHI_MICROKERNEL=auto@<tier> for each tier.
TEST(MicrokernelRegistry, DispatchedTileRoundTrips) {
  if (static_cast<int>(mk::select_kernel<double>(0).isa) >
      static_cast<int>(host_tier()))
    GTEST_SKIP() << "pinned tier not supported by this host";
  expect_tile_round_trip<double>();
  expect_tile_round_trip<float>();
}

TEST(MicrokernelBitwise, EveryShapeAndIsaMatchesReference) {
  for (const auto& k : mk::registry<double>()) {
    const std::size_t mr = k.shape.mr, nr = k.shape.nr, tr = k.shape.tile_rows;
    // Ragged grids straddling the register block and the pack tile.
    const std::size_t ms[] = {1, mr - 1, mr, mr + 1, tr, tr + 5};
    const std::size_t ns[] = {1, nr - 1, nr, nr + 1, 2 * nr + 3};
    const std::size_t ks[] = {1, 7, 31};
    for (std::size_t isa = 0; isa < mk::kIsaCount; ++isa) {
      if (!k.variants[isa]) continue;  // tier not compiled into this build
      const std::string spec = std::string(k.shape.name) + "@" +
                               mk::isa_name(static_cast<mk::Isa>(isa));
      // The spec must actually resolve on this host (a host without AVX2
      // still links the AVX2 table when the compiler supports the flag,
      // but dispatching it would execute illegal instructions).
      const auto sel = mk::select_kernel_spec<double>(spec);
      if (!sel.has_value()) continue;
      for (const std::size_t m : ms) {
        if (m == 0) continue;
        for (const std::size_t n : ns) {
          if (n == 0) continue;
          for (const std::size_t kk : ks) {
            const std::uint64_t seed = m * 1000003 + n * 1009 + kk;
            const auto got = run_forced(spec, m, n, kk, seed);
            const auto want = run_ref(m, n, kk, seed, sel->accumulate());
            ASSERT_TRUE(bitwise_equal(got.view(), want.view()))
                << spec << " m=" << m << " n=" << n << " k=" << kk;
          }
        }
      }
    }
  }
}

TEST(MicrokernelBitwise, FloatEveryShapeAndIsaMatchesReference) {
  // Same ragged-edge sweep as the fp64 test, over the fp32 tables the mixed
  // solver factors with: every (shape, tier) the host can run must match
  // the reference GEMM bit for bit in single precision.
  for (const auto& k : mk::registry<float>()) {
    const std::size_t mr = k.shape.mr, nr = k.shape.nr, tr = k.shape.tile_rows;
    const std::size_t ms[] = {1, mr - 1, mr, mr + 1, tr, tr + 5};
    const std::size_t ns[] = {1, nr - 1, nr, nr + 1, 2 * nr + 3};
    const std::size_t ks[] = {1, 7, 31};
    for (std::size_t isa = 0; isa < mk::kIsaCount; ++isa) {
      if (!k.variants[isa]) continue;
      const std::string spec = std::string(k.shape.name) + "@" +
                               mk::isa_name(static_cast<mk::Isa>(isa));
      const auto sel = mk::select_kernel_spec<float>(spec);
      if (!sel.has_value()) continue;
      for (const std::size_t m : ms) {
        if (m == 0) continue;
        for (const std::size_t n : ns) {
          if (n == 0) continue;
          for (const std::size_t kk : ks) {
            const std::uint64_t seed = m * 1000003 + n * 1009 + kk;
            const auto got = run_forced<float>(spec, m, n, kk, seed);
            const auto want =
                run_ref<float>(m, n, kk, seed, sel->accumulate());
            ASSERT_TRUE(bitwise_equal(got.view(), want.view()))
                << spec << " m=" << m << " n=" << n << " k=" << kk;
          }
        }
      }
    }
  }
}

/// Every (shape, tier) the host can run, grouped by contract: kernels of
/// one contract must agree bit for bit whatever their shape or tier (each C
/// element is one ascending-k chain regardless of Mr x Nr or vector width).
/// Returns how many contracts had at least one runnable kernel.
template <class T>
std::size_t expect_kernels_agree_within_contract() {
  const std::size_t m = 41, n = 37, k = 23;
  std::optional<Matrix<T>> first[2];
  std::string first_spec[2];
  for (const auto& kern : mk::registry<T>()) {
    for (std::size_t isa = 0; isa < mk::kIsaCount; ++isa) {
      const auto tier = static_cast<mk::Isa>(isa);
      const std::string spec =
          std::string(kern.shape.name) + "@" + mk::isa_name(tier);
      const auto sel = mk::select_kernel_spec<T>(spec);
      if (!sel.has_value() || sel->isa != tier) continue;
      const auto contract = static_cast<std::size_t>(sel->accumulate());
      auto c = run_forced<T>(spec, m, n, k, 77);
      if (!first[contract]) {
        first[contract] = std::move(c);
        first_spec[contract] = spec;
        continue;
      }
      EXPECT_TRUE(bitwise_equal(c.view(), first[contract]->view()))
          << spec << " vs " << first_spec[contract];
    }
  }
  return static_cast<std::size_t>(first[0].has_value()) +
         static_cast<std::size_t>(first[1].has_value());
}

TEST(MicrokernelBitwise, FloatAllShapesAgree) {
  // fp32 is unfused at every tier, so every fp32 kernel the host runs
  // agrees — the float dispatch policy (4x8 everywhere) is a pure perf
  // choice, never a numerics one.
  EXPECT_EQ(expect_kernels_agree_within_contract<float>(), 1u);
}

TEST(MicrokernelBitwise, AllShapesAgree) {
  // The determinism contract within a tier: the kernel shape never changes
  // a bit of the result. The fused fp64 tiers (avx2, avx512) agree with
  // each other too; they differ from the generic tier by design.
  const std::size_t contracts = expect_kernels_agree_within_contract<double>();
  EXPECT_EQ(contracts, runs_fused_tier() ? 2u : 1u);
}

TEST(MicrokernelContract, FusedExactlyForFp64AtFmaTiers) {
  // The per-(type, tier) contract of every compiled table entry, runnable
  // on this host or not: fp64 is fused at avx2 and avx512, unfused at
  // generic; fp32 is unfused everywhere.
  for (const auto& kern : mk::registry<double>()) {
    for (std::size_t isa = 0; isa < mk::kIsaCount; ++isa) {
      if (!kern.variants[isa]) continue;
      EXPECT_EQ(kern.variants[isa].accumulate,
                isa == static_cast<std::size_t>(mk::Isa::kGeneric)
                    ? mk::Accumulate::kUnfused
                    : mk::Accumulate::kFused)
          << kern.shape.name << "@" << mk::isa_name(static_cast<mk::Isa>(isa));
    }
  }
  for (const auto& kern : mk::registry<float>()) {
    for (std::size_t isa = 0; isa < mk::kIsaCount; ++isa) {
      if (!kern.variants[isa]) continue;
      EXPECT_EQ(kern.variants[isa].accumulate, mk::Accumulate::kUnfused)
          << kern.shape.name << "@" << mk::isa_name(static_cast<mk::Isa>(isa));
    }
  }
}

TEST(MicrokernelContract, FusedKernelsDifferFromUnfusedReference) {
  // The two references are different contracts: a fused kernel matches
  // the fused gemm_ref and not the unfused one on operands where one
  // rounding per k-step shows (k = 31 random products).
  if (!runs_fused_tier()) GTEST_SKIP() << "no fused tier runs here";
  const std::size_t m = 32, n = 8, k = 31;
  const auto sel = mk::select_kernel_spec<double>("8x8@avx2");
  ASSERT_EQ(sel->accumulate(), mk::Accumulate::kFused);
  auto got = run_forced(sel->name(), m, n, k, 5);
  auto fused = run_ref(m, n, k, 5, mk::Accumulate::kFused);
  auto unfused = run_ref(m, n, k, 5, mk::Accumulate::kUnfused);
  EXPECT_TRUE(bitwise_equal(got.view(), fused.view()));
  EXPECT_FALSE(bitwise_equal(got.view(), unfused.view()));
}

/// Non-finite operands injected by the direct-call harness. Each case
/// carries one NaN bit pattern: the injected quiet NaN (kNan) or the
/// default NaN that invalid operations such as Inf - Inf produce (kInf).
/// IEEE 754 leaves the payload of an operation on two different NaNs open
/// (x86 returns the first operand's), so mixing both could legally differ
/// with operand order; one pattern per case keeps memcmp a valid oracle.
enum class Special { kNone, kNan, kInf };

struct DirectCase {
  std::size_t k;
  std::size_t b_off;  // element offset of the packed B tile from an aligned base
  std::size_t c_off;  // element offset of C from an aligned base
  std::size_t ldc;
  std::size_t rows;  // live rows; < tile_rows (or cols < nr) takes fns.masked
  std::size_t cols;
  Special special;
  double beta;
};

/// Calls one (shape, tier)'s entry point on hand-packed operands and
/// compares the whole C buffer — live corner, row gaps and the elements
/// before C — with gemm_ref on the same operands, byte for byte.
template <class T>
void expect_direct_matches_reference(const mk::Selection<T>& sel,
                                     const DirectCase& dc,
                                     std::uint64_t seed) {
  const std::size_t tr = sel.tile_rows(), nr = sel.nr(), k = dc.k;
  Matrix<T> a(dc.rows, k), b(k, dc.cols);
  fill_random<T>(a.view(), seed);
  fill_random<T>(b.view(), seed ^ 0x51);
  const std::size_t c_len = dc.c_off + (dc.rows - 1) * dc.ldc + nr;
  util::AlignedBuffer<T> c(c_len);
  {
    util::Rng rng(seed ^ 0xc3);
    for (std::size_t i = 0; i < c_len; ++i)
      c[i] = static_cast<T>(rng.next_centered());
  }
  MatrixView<T> cv(c.data() + dc.c_off, dc.rows, dc.cols, dc.ldc);
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  if (dc.special == Special::kNan) {
    a(dc.rows - 1, k / 2) = nan;
    b(k - 1, 0) = nan;
    cv(0, dc.cols - 1) = nan;
  } else if (dc.special == Special::kInf) {
    a(0, 0) = inf;
    b(k - 1, dc.cols - 1) = -inf;  // meets a(0, 0)'s Inf row: Inf - Inf
    cv(dc.rows - 1, 0) = inf;
  }
  // Zero-padded packing, as PackedA/PackedB produce for edge tiles.
  util::AlignedBuffer<T> pa(tr * k), pb(dc.b_off + k * nr);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t r = 0; r < dc.rows; ++r) pa[j * tr + r] = a(r, j);
  T* b_tile = pb.data() + dc.b_off;
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t c2 = 0; c2 < dc.cols; ++c2)
      b_tile[j * nr + c2] = b(j, c2);

  util::AlignedBuffer<T> want(c_len);
  std::memcpy(want.data(), c.data(), c_len * sizeof(T));
  gemm_ref<T>(T(1.5), a.view(), b.view(), T(dc.beta),
              MatrixView<T>(want.data() + dc.c_off, dc.rows, dc.cols, dc.ldc),
              sel.accumulate());
  if (dc.rows == tr && dc.cols == nr) {
    sel.fns.full(pa.data(), b_tile, k, T(1.5), T(dc.beta), cv.data(), dc.ldc);
  } else {
    sel.fns.masked(pa.data(), b_tile, k, T(1.5), T(dc.beta), cv.data(),
                   dc.ldc, dc.rows, dc.cols);
  }
  EXPECT_EQ(std::memcmp(c.data(), want.data(), c_len * sizeof(T)), 0)
      << sel.name() << " k=" << k << " b_off=" << dc.b_off
      << " c_off=" << dc.c_off << " ldc=" << dc.ldc << " rows=" << dc.rows
      << " cols=" << dc.cols << " special=" << static_cast<int>(dc.special)
      << " beta=" << dc.beta;
}

/// What explicit vector code newly risks, per shape x runnable tier: loads
/// and stores at odd element offsets (no alignment assumed), a C leading
/// dimension that is no multiple of the vector lane count, and NaN/Inf
/// propagation — including beta = 0 with NaN or Inf in C, where beta * c
/// must still be computed exactly as gemm_ref computes it.
template <class T>
void expect_direct_calls_match_reference() {
  std::size_t cases = 0;
  for (const auto& kern : mk::registry<T>()) {
    const std::size_t nr = kern.shape.nr, tr = kern.shape.tile_rows;
    for (std::size_t isa = 0; isa < mk::kIsaCount; ++isa) {
      const auto tier = static_cast<mk::Isa>(isa);
      const auto sel = mk::select_kernel_spec<T>(
          std::string(kern.shape.name) + "@" + mk::isa_name(tier));
      if (!sel.has_value() || sel->isa != tier) continue;
      // (b_off, c_off, ldc): aligned; odd offsets with ldc = nr + 1 and
      // 2nr + 3 (odd, so never a lane-count multiple).
      const std::size_t layouts[][3] = {
          {0, 0, nr}, {1, 3, nr + 1}, {3, 1, 2 * nr + 3}};
      // (rows, cols): the full tile, then two masked edges.
      const std::size_t extents[][2] = {{tr, nr}, {tr - 1, nr - 1}, {1, 2}};
      for (const std::size_t k : {std::size_t{1}, std::size_t{9}})
        for (const auto& l : layouts)
          for (const auto& e : extents)
            for (const Special s : {Special::kNone, Special::kNan,
                                    Special::kInf})
              for (const double beta : {-0.5, 0.0}) {
                const DirectCase dc{k, l[0], l[1], l[2], e[0], e[1], s, beta};
                expect_direct_matches_reference<T>(*sel, dc,
                                                   cases * 7919 + isa);
                ++cases;
              }
    }
  }
  // At least every shape at the generic tier ran.
  EXPECT_GE(cases, mk::kShapeCount * 108);
}

TEST(MicrokernelBitwise, DirectCallsMatchReferenceUnalignedAndNonFinite) {
  expect_direct_calls_match_reference<double>();
}

TEST(MicrokernelBitwise, FloatDirectCallsMatchReferenceUnalignedAndNonFinite) {
  expect_direct_calls_match_reference<float>();
}

TEST(MicrokernelBitwise, CacheBlockingIsBitwiseNeutral) {
  // mc/nc reorder whole register-block updates, never the k chain inside
  // one: any blocking must reproduce the unblocked bits exactly.
  const std::size_t m = 97, n = 83, k = 45;
  Matrix<double> a(m, k), b(k, n);
  fill_random(a.view(), 5);
  fill_random(b.view(), 6);
  Matrix<double> base(m, n);
  fill_random(base.view(), 7);

  Matrix<double> want(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) want(r, c) = base(r, c);
  GemmOptions plain;
  plain.chunk_k = k;
  gemm_tiled<double>(-1.0, a.view(), b.view(), 1.0, want.view(), plain);

  for (const auto& [mc, nc] : {std::pair<std::size_t, std::size_t>{30, 16},
                               {60, 8}, {90, 40}, {30, 0}, {0, 24}}) {
    Matrix<double> got(m, n);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < n; ++c) got(r, c) = base(r, c);
    GemmOptions go;
    go.chunk_k = k;
    go.mc = mc;
    go.nc = nc;
    gemm_tiled<double>(-1.0, a.view(), b.view(), 1.0, got.view(), go);
    ASSERT_TRUE(bitwise_equal(got.view(), want.view()))
        << "mc=" << mc << " nc=" << nc;
  }
}

TEST(CpuFeaturesProbe, Sane) {
  const auto& f = mk::host_cpu_features();
  EXPECT_GT(f.l1d_bytes, 0u);
  EXPECT_GT(f.l1d_assoc, 0u);
  EXPECT_GT(f.line_bytes, 0u);
  EXPECT_GT(f.l2_bytes, f.l1d_bytes);
  EXPECT_GT(f.tlb_reach_bytes(), 0u);
  // Feature bits are monotone: avx512f implies avx2 implies sse2 on any
  // real part (and on our probe, which reads the same CPUID leaves).
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
  }
  if (f.avx2) {
    EXPECT_TRUE(f.sse2);
  }
  EXPECT_FALSE(mk::describe(f).empty());
  EXPECT_NE(mk::widest_isa_label(f), nullptr);
}

TEST(BlockModel, FitsProbedCaches) {
  const auto& f = mk::host_cpu_features();
  for (const auto& k : mk::registry<double>()) {
    const BlockSizes b =
        analytic_block_sizes(f, k.shape.mr, k.shape.nr, sizeof(double));
    SCOPED_TRACE(k.shape.name);
    // Alignment / multiplicity invariants.
    EXPECT_EQ(b.kc % 4, 0u);
    EXPECT_GE(b.kc, 32u);
    EXPECT_LE(b.kc, 2048u);
    EXPECT_EQ(b.mc % k.shape.mr, 0u);
    EXPECT_EQ(b.nc % k.shape.nr, 0u);
    // L1: the A and B micro-panels fit together with one way to spare.
    const std::size_t l1_use =
        (k.shape.mr + k.shape.nr) * b.kc * sizeof(double);
    EXPECT_LE(l1_use, f.l1d_bytes) << "micro-panels overflow L1";
    // L2: the packed mc x kc A block fits at (W2-1)/W2 occupancy.
    const std::size_t w2 = f.l2_assoc >= 2 ? f.l2_assoc : 2;
    EXPECT_LE(b.mc * b.kc * sizeof(double), f.l2_bytes / w2 * (w2 - 1) + 1)
        << "A block overflows the L2 budget";
    // TLB: the kc x nc B panel stays within half the probed reach.
    EXPECT_LE(b.kc * b.nc * sizeof(double),
              std::max(f.tlb_reach_bytes() / 2,
                       k.shape.nr * b.kc * sizeof(double)))
        << "B panel overflows TLB reach";
  }
}

TEST(BlockModel, DegenerateProbeStillRunnable) {
  mk::CpuFeatures f;  // defaults
  f.l1d_bytes = 1024;  // absurdly small cache
  f.l1d_assoc = 0;     // broken probe
  f.l2_bytes = 4096;
  f.l2_assoc = 0;
  f.tlb_entries = 1;
  const BlockSizes b = analytic_block_sizes(f, 6, 8, sizeof(double));
  EXPECT_GE(b.kc, 32u);  // clamped floor
  EXPECT_GE(b.mc, 6u);
  EXPECT_GE(b.nc, 8u);
  EXPECT_EQ(b.mc % 6, 0u);
  EXPECT_EQ(b.nc % 8, 0u);
}

TEST(BlockModel, SeedTracksKernelShape) {
  // A wider register block shifts the L1 way split: kc scales with the
  // shape, it is not a constant the model ignores the kernel for.
  mk::CpuFeatures f;
  f.l1d_bytes = 32 * 1024;
  f.l1d_assoc = 8;
  f.line_bytes = 64;
  f.l2_bytes = 1024 * 1024;
  f.l2_assoc = 16;
  const BlockSizes narrow = analytic_block_sizes(f, 3, 8, sizeof(double));
  const BlockSizes wide = analytic_block_sizes(f, 8, 6, sizeof(double));
  EXPECT_NE(narrow.kc, wide.kc);
}

TEST(TrsmRank, RegisterBlockingIsBitwiseNeutral) {
  // The dispatched rank (4/6/8 from the kernel's Mr) streams R solved rows
  // per pass but keeps each element's subtraction chain in ascending k
  // order — bitwise-identical to the scalar substitution.
  const std::size_t n = 53, w = 29;
  Matrix<double> l(n, n), b0(n, w);
  fill_random(l.view(), 11);
  fill_random(b0.view(), 12);

  Matrix<double> want(n, w), got(n, w);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < w; ++c) want(r, c) = got(r, c) = b0(r, c);
  trsm_left_lower_unit_unblocked<double>(l.view(), want.view());
  trsm_left_lower_unit<double>(l.view(), got.view());
  ASSERT_TRUE(bitwise_equal(got.view(), want.view()));

  // Upper solve: diagonal away from zero, same contract.
  for (std::size_t i = 0; i < n; ++i) l(i, i) += l(i, i) < 0 ? -2.0 : 2.0;
  Matrix<double> wantu(n, w), gotu(n, w);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < w; ++c) wantu(r, c) = gotu(r, c) = b0(r, c);
  trsm_left_upper_unblocked<double>(l.view(), wantu.view());
  ASSERT_TRUE(trsm_left_upper<double>(l.view(), gotu.view()));
  ASSERT_TRUE(bitwise_equal(gotu.view(), wantu.view()));
}

TEST(GemmDispatch, AutoDispatchReportsWidestTier) {
  const auto sel = mk::select_kernel<double>(0);
  ASSERT_TRUE(static_cast<bool>(sel));
  if (!mk::env_override_spec().empty()) GTEST_SKIP() << "env pin active";
  const auto& f = mk::host_cpu_features();
#if defined(XPHI_MK_HAVE_AVX512)
  if (f.avx512f) {
    EXPECT_EQ(sel.isa, mk::Isa::kAvx512);
    EXPECT_EQ(sel.id(), 808);
    return;
  }
#endif
#if defined(XPHI_MK_HAVE_AVX2)
  if (f.avx2 && f.fma) {
    EXPECT_EQ(sel.isa, mk::Isa::kAvx2);
    EXPECT_EQ(sel.id(), 608);
    return;
  }
#endif
  EXPECT_EQ(sel.isa, mk::Isa::kGeneric);
  EXPECT_EQ(sel.id(), 308);
}

TEST(GemmDispatch, FloatAutoDispatchPrefersShortBlock) {
  // fp32 auto-dispatch picks 4x8 at EVERY tier: an Nr=8 float row is one
  // 256-bit vector at the avx2/avx512 tiers, so no fp32 shape adds lanes,
  // and no taller block beats 4x8 beyond its spread in bench_fig4's
  // per-shape L1 table (registry.cc preferred_shape_id).
  for (const char* spec : {"auto@generic", "auto@avx2", "auto@avx512"}) {
    const auto sel = mk::select_kernel_spec<float>(spec);
    if (!sel.has_value()) continue;  // tier not runnable on this host
    EXPECT_EQ(sel->id(), 408) << spec;
  }
  if (!mk::env_override_spec().empty()) GTEST_SKIP() << "env pin active";
  const auto sel = mk::select_kernel<float>(0);
  ASSERT_TRUE(static_cast<bool>(sel));
  EXPECT_EQ(sel.id(), 408);
  // The double policy is independent and unchanged by the float preference.
  const auto dsel = mk::select_kernel<double>(0);
  ASSERT_TRUE(static_cast<bool>(dsel));
  EXPECT_NE(dsel.id(), 408);
}

}  // namespace
}  // namespace xphi::blas
