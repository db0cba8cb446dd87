// Differential test of the LU stage engine (blas/getrf.h): every client —
// getrf_blocked pooled (the malleable look-ahead on 1, 2 and 3 workers),
// the DAG executor, the stage loop with the offload-engine update with and
// without the look-ahead on the engine's pool, and the solve server's
// offload path — must produce factors and pivots bitwise equal to the
// serial getrf_blocked, also on ragged shapes and when a later panel hits a
// zero pivot.
// getrf_blocked itself and the hybrid driver's residual are pinned to
// hashes captured before the drivers shared one engine, so the oracle
// cannot drift along with its clients. fp64 carries one pin per
// GEMM contract (DESIGN.md §12): the unfused pins are the original ones,
// the fused pins were captured when the avx2/avx512 fp64 kernels started
// accumulating through FMA. The stage_engine_tier_<tier> ctest entries
// re-run every case with XPHI_MICROKERNEL=auto@<tier>, so each ISA tier's
// micro-kernels reproduce their contract's pinned hashes end to end.
#include "blas/getrf.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "blas/microkernel/registry.h"
#include "core/hybrid_functional.h"
#include "core/offload_functional.h"
#include "lu/functional.h"
#include "serve/server.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

struct Shape {
  std::size_t n, nb;
  // FNV-1a of getrf_blocked's factors then pivots: fp64 under the unfused
  // contract (generic tier) and the fused one (avx2/avx512 tiers), and fp32
  // (unfused at every tier).
  std::uint64_t f64_hash, f64_fused_hash, f32_hash;
};

constexpr Shape kShapes[] = {
    {150, 32, 0xfd974cbd56e06dbbull, 0x29122dedc22691edull,
     0xf24568a56cfe49e6ull},
    {97, 16, 0xc9c9025f7d67e2d6ull, 0xa87dc2142295520bull,
     0x325306c6c5b5c45full},
    {256, 64, 0x8ee40b4c7af5b0b0ull, 0x8c8e480b9c317f59ull,
     0x5b4a73327b005eecull},
    {20, 64, 0x4d1bbecf442b51c3ull, 0x75cffd50736952bcull,
     0x8d95fa2ce0e84097ull},
};

/// Unpinned shapes for the pooled look-ahead, beside the pinned ones
/// (n % nb = 22, 1, 0 and n < nb): n % nb = nb - 1; a rest of 3 columns
/// beside the look-ahead panel, narrower than one tile column; n == nb;
/// a last look-ahead panel of one column; n % nb = 0 over five panels.
struct Dims {
  std::size_t n, nb;
};
constexpr Dims kRaggedDims[] = {
    {127, 32}, {67, 32}, {64, 64}, {33, 32}, {160, 32}};

/// Every (n, nb) the differential tests run: the pinned shapes first.
std::vector<Dims> all_shapes() {
  std::vector<Dims> out;
  for (const Shape& s : kShapes) out.push_back({s.n, s.nb});
  out.insert(out.end(), std::begin(kRaggedDims), std::end(kRaggedDims));
  return out;
}

/// Whether this run's fp64 GEMMs accumulate fused: the contract follows
/// the dispatched tier (XPHI_MICROKERNEL=auto@<tier> in the tier entries).
bool fp64_fused() {
  return mk::select_kernel<double>(0).accumulate() == mk::Accumulate::kFused;
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <class T>
struct Factors {
  util::Matrix<T> lu;
  std::vector<std::size_t> ipiv;
  bool ok = false;

  std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t r = 0; r < lu.rows(); ++r)
      h = fnv1a(h, lu.data() + r * lu.ld(), lu.cols() * sizeof(T));
    for (std::size_t p : ipiv) {
      const std::uint64_t v = p;
      h = fnv1a(h, &v, sizeof v);
    }
    return h;
  }
};

/// The seeded HPL matrix of a shape (fp32: the demoted fp64 matrix).
template <class T>
util::Matrix<T> input(std::size_t n) {
  util::Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 1000 + n);
  util::Matrix<T> out(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out(r, c) = static_cast<T>(a(r, c));
  return out;
}

/// Rank one with power-of-two row scales: elimination cancels exactly, so
/// the second pivot is an exact zero.
template <class T>
util::Matrix<T> rank_one(std::size_t n) {
  util::Matrix<T> out(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      out(r, c) = static_cast<T>((1u << (r % 4)) * ((c % 5) + 1));
  return out;
}

/// The seeded matrix with column `col` cleared: elimination only subtracts
/// multiples of zero from it, so its pivot is an exact zero in the panel
/// that holds it, after every earlier panel factored.
template <class T>
util::Matrix<T> zero_column(std::size_t n, std::size_t col) {
  util::Matrix<T> out = input<T>(n);
  for (std::size_t r = 0; r < n; ++r) out(r, col) = T{};
  return out;
}

template <class T, class Factor>
Factors<T> run(util::Matrix<T> a, Factor&& factor) {
  Factors<T> f{std::move(a), {}, false};
  f.ipiv.assign(f.lu.rows(), 0);
  f.ok = factor(f.lu.view(), std::span<std::size_t>(f.ipiv));
  return f;
}

template <class T>
void expect_bitwise(const Factors<T>& want, const Factors<T>& got,
                    const char* client) {
  ASSERT_TRUE(got.ok) << client;
  EXPECT_EQ(got.ipiv, want.ipiv) << client;
  EXPECT_EQ(std::memcmp(got.lu.data(), want.lu.data(),
                        sizeof(T) * want.lu.rows() * want.lu.ld()),
            0)
      << client;
}

/// Every client of one precision, by name, as factor(view, ipiv, nb).
template <class T>
struct Client {
  const char* name;
  bool (*factor)(util::MatrixView<T>, std::span<std::size_t>, std::size_t);
};

template <class T>
std::vector<Client<T>> dag_clients() {
  return {
      {"dag 1 worker",
       [](util::MatrixView<T> a, std::span<std::size_t> p, std::size_t nb) {
         return lu::dag_lu_factor_t<T>(a, p, nb, 1);
       }},
      {"dag 4 workers",
       [](util::MatrixView<T> a, std::span<std::size_t> p, std::size_t nb) {
         return lu::dag_lu_factor_t<T>(a, p, nb, 4);
       }},
  };
}

/// getrf_blocked on a pool of kWorkers: the malleable look-ahead.
template <class T, std::size_t kWorkers>
bool pooled_client(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                   std::size_t nb) {
  util::ThreadPool pool(kWorkers);
  return getrf_blocked<T>(a, ipiv, nb, &pool);
}

template <class T>
std::vector<Client<T>> pooled_clients() {
  return {{"blocked ThreadPool(1)", pooled_client<T, 1>},
          {"blocked ThreadPool(2)", pooled_client<T, 2>},
          {"blocked ThreadPool(3)", pooled_client<T, 3>}};
}

/// The stage loop with the offload-engine update on 2 cards: with the
/// look-ahead on the engine's pool (the hybrid driver), or without a pool
/// and so without look-ahead (the serve worker's offload path).
template <bool kLookahead, bool kSteals>
bool offload_client(util::MatrixView<double> a, std::span<std::size_t> ipiv,
                    std::size_t nb) {
  core::FunctionalOffloadConfig oc;
  oc.cards = 2;
  oc.host_steals = kSteals;
  oc.knobs.mt = 24;
  oc.knobs.nt = 24;
  core::OffloadEngine engine(oc);
  PanelOptions panel;
  if (kLookahead) panel.pool = &engine.pool();
  return getrf_stages<double>(a, ipiv, nb, panel, core::OffloadUpdate{engine});
}

std::vector<Client<double>> offload_lookahead_clients() {
  return {{"offload look-ahead steals", offload_client<true, true>},
          {"offload look-ahead", offload_client<true, false>}};
}

std::vector<Client<double>> offload_none_clients() {
  return {{"offload none steals", offload_client<false, true>},
          {"offload none", offload_client<false, false>}};
}

std::vector<Client<double>> fp64_clients() {
  std::vector<Client<double>> out = dag_clients<double>();
  for (const auto& c : pooled_clients<double>()) out.push_back(c);
  for (const auto& c : offload_none_clients()) out.push_back(c);
  for (const auto& c : offload_lookahead_clients()) out.push_back(c);
  return out;
}

/// The serial oracle on `a`.
template <class T>
Factors<T> blocked(util::Matrix<T> a, std::size_t nb) {
  return run<T>(std::move(a), [&](util::MatrixView<T> v,
                                  std::span<std::size_t> p) {
    return getrf_blocked<T>(v, p, nb);
  });
}

template <class T>
Factors<T> blocked(const Shape& s) {
  return blocked<T>(input<T>(s.n), s.nb);
}

/// Every pooled client of one precision bitwise equal to the serial oracle
/// on every shape.
template <class T>
void expect_pooled_bitwise_serial() {
  for (const Dims& s : all_shapes()) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    const auto want = blocked<T>(input<T>(s.n), s.nb);
    ASSERT_TRUE(want.ok);
    for (const auto& client : pooled_clients<T>()) {
      const auto got =
          run<T>(input<T>(s.n),
                 [&](util::MatrixView<T> a, std::span<std::size_t> p) {
                   return client.factor(a, p, s.nb);
                 });
      expect_bitwise(want, got, client.name);
    }
  }
}

/// Skips every case when an XPHI_MICROKERNEL pin names a tier this host
/// cannot execute (the tier entries run on any host).
class StageEngine : public ::testing::Test {
 protected:
  void SetUp() override {
    // select_kernel_spec ignores the environment, so "auto" resolves to the
    // widest tier the host runs.
    if (mk::select_kernel<double>(0).isa >
        mk::select_kernel_spec<double>("auto")->isa)
      GTEST_SKIP() << "pinned tier not supported by this host";
  }
};

TEST_F(StageEngine, BlockedOracleMatchesPinnedHashes) {
  for (const Shape& s : kShapes) {
    const auto f64 = blocked<double>(s);
    const auto f32 = blocked<float>(s);
    ASSERT_TRUE(f64.ok && f32.ok) << s.n << "x" << s.nb;
    EXPECT_EQ(f64.hash(), fp64_fused() ? s.f64_fused_hash : s.f64_hash)
        << s.n << "x" << s.nb;
    EXPECT_EQ(f32.hash(), s.f32_hash) << s.n << "x" << s.nb;
  }
}

TEST_F(StageEngine, Fp64ClientsBitwiseEqualBlocked) {
  for (const Dims& s : all_shapes()) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    const auto want = blocked<double>(input<double>(s.n), s.nb);
    for (const auto& client : fp64_clients()) {
      const auto got = run<double>(
          input<double>(s.n),
          [&](util::MatrixView<double> a, std::span<std::size_t> p) {
            return client.factor(a, p, s.nb);
          });
      expect_bitwise(want, got, client.name);
    }
  }
}

TEST_F(StageEngine, Fp32DagBitwiseEqualBlocked) {
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    const auto want = blocked<float>(s);
    for (const auto& client : dag_clients<float>()) {
      const auto got = run<float>(
          input<float>(s.n),
          [&](util::MatrixView<float> a, std::span<std::size_t> p) {
            return client.factor(a, p, s.nb);
          });
      expect_bitwise(want, got, client.name);
    }
  }
}

TEST_F(StageEngine, PooledLookaheadFp64BitwiseEqualSerial) {
  expect_pooled_bitwise_serial<double>();
}

TEST_F(StageEngine, PooledLookaheadFp32BitwiseEqualSerial) {
  expect_pooled_bitwise_serial<float>();
}

/// A zero pivot in the second and in the fourth panel (n=150, nb=32): the
/// look-ahead participant fails while the others update the rest. Every
/// look-ahead client returns false without throwing, leaving the serial
/// oracle's factors and pivots bit for bit; every other client returns
/// false too.
template <class T>
void expect_later_panel_fails(const std::vector<Client<T>>& lookahead,
                              const std::vector<Client<T>>& others) {
  const std::size_t n = 150, nb = 32;
  for (const std::size_t col : {nb + 5, 3 * nb + 1}) {
    SCOPED_TRACE(testing::Message() << "zero column " << col);
    auto want = blocked<T>(zero_column<T>(n, col), nb);
    ASSERT_FALSE(want.ok);
    want.ok = true;  // expect_bitwise compares successful runs
    for (const auto& client : lookahead) {
      Factors<T> got;
      EXPECT_NO_THROW(
          got = run<T>(zero_column<T>(n, col),
                       [&](util::MatrixView<T> a, std::span<std::size_t> p) {
                         return client.factor(a, p, nb);
                       }));
      EXPECT_FALSE(got.ok) << client.name;
      got.ok = true;
      expect_bitwise(want, got, client.name);
    }
    for (const auto& client : others) {
      EXPECT_NO_THROW(EXPECT_FALSE(
          run<T>(zero_column<T>(n, col),
                 [&](util::MatrixView<T> a, std::span<std::size_t> p) {
                   return client.factor(a, p, nb);
                 })
              .ok))
          << client.name;
    }
  }
}

TEST_F(StageEngine, PooledLookaheadFailsInLaterPanel) {
  std::vector<Client<double>> lookahead = pooled_clients<double>();
  for (const auto& c : offload_lookahead_clients()) lookahead.push_back(c);
  std::vector<Client<double>> others = dag_clients<double>();
  for (const auto& c : offload_none_clients()) others.push_back(c);
  expect_later_panel_fails<double>(lookahead, others);
  expect_later_panel_fails<float>(pooled_clients<float>(),
                                  dag_clients<float>());
}

TEST_F(StageEngine, PooledLookaheadStatsCountPanels) {
  for (const Dims& s : all_shapes()) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    auto a = input<double>(s.n);
    std::vector<std::size_t> ipiv(s.n);
    util::ThreadPool pool(2);
    PanelOptions panel;
    panel.pool = &pool;
    StageLoopStats st;
    ASSERT_TRUE(getrf_stages<double>(a.view(), ipiv, s.nb, panel,
                                     GemmUpdate<double>(), &st));
    const std::size_t stages = (s.n + s.nb - 1) / s.nb;
    EXPECT_EQ(st.lookahead_panels, stages - 1);
  }
}

TEST_F(StageEngine, OffloadLookaheadStatsCountPanels) {
  // On the engine's pool every stage but the last factors the next panel
  // beside the update; without a pool no stage does.
  for (const Dims& s : all_shapes()) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    core::OffloadEngine engine(core::FunctionalOffloadConfig{});
    for (const bool pooled : {true, false}) {
      auto a = input<double>(s.n);
      std::vector<std::size_t> ipiv(s.n);
      PanelOptions panel;
      if (pooled) panel.pool = &engine.pool();
      StageLoopStats st;
      ASSERT_TRUE(getrf_stages<double>(a.view(), ipiv, s.nb, panel,
                                       core::OffloadUpdate{engine}, &st));
      const std::size_t stages = (s.n + s.nb - 1) / s.nb;
      EXPECT_EQ(st.lookahead_panels, pooled ? stages - 1 : 0) << pooled;
    }
  }
}

TEST_F(StageEngine, ServerOffloadPathBitwiseEqualBlocked) {
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    serve::Job job;
    job.n = s.n;
    job.matrix_seed = 1000 + s.n;
    job.rhs_seed = 77;
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.nb = s.nb;
    cfg.factor_cards = 2;
    const serve::ServeReport report = serve::run_server({job}, cfg);
    ASSERT_EQ(report.jobs.size(), 1u);
    ASSERT_FALSE(report.jobs[0].rejected);

    auto want = blocked<double>(s);
    std::vector<double> x(s.n);
    util::Rng rng(job.rhs_seed);
    for (auto& v : x) v = rng.next_centered();
    lu_solve_vector<double>(want.lu.view(), want.ipiv, x);
    ASSERT_EQ(report.jobs[0].x.size(), s.n);
    EXPECT_EQ(std::memcmp(report.jobs[0].x.data(), x.data(),
                          sizeof(double) * s.n),
              0);
  }
}

TEST_F(StageEngine, HybridResidualMatchesPinnedBits) {
  struct Pin {
    std::size_t n, nb;
    int cards;
    std::uint64_t residual_bits, fused_residual_bits;
  };
  const Pin pins[] = {
      {150, 32, 1, 0x3f70e4b6702d65fcull, 0x3f75cf9e64feff32ull},
      {97, 16, 2, 0x3f74a9c9f5508a27ull, 0x3f7301796a890d6full}};
  for (const Pin& pin : pins) {
    for (auto scheme : {core::FunctionalScheme::kNoLookahead,
                        core::FunctionalScheme::kBasic}) {
      core::HybridFunctionalConfig cfg;
      cfg.n = pin.n;
      cfg.nb = pin.nb;
      cfg.offload.cards = pin.cards;
      cfg.scheme = scheme;
      const auto res = core::run_functional_hybrid_hpl(cfg, 42);
      ASSERT_TRUE(res.ok);
      std::uint64_t bits;
      std::memcpy(&bits, &res.residual, sizeof bits);
      EXPECT_EQ(bits,
                fp64_fused() ? pin.fused_residual_bits : pin.residual_bits)
          << pin.n << "x" << pin.nb << " scheme " << static_cast<int>(scheme);
    }
  }
}

TEST_F(StageEngine, RankOneFailsEveryClientWithoutThrowing) {
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s.n << "x" << s.nb);
    auto serial = [&](util::MatrixView<double> a, std::span<std::size_t> p) {
      return getrf_blocked<double>(a, p, s.nb);
    };
    EXPECT_NO_THROW(EXPECT_FALSE(run<double>(rank_one<double>(s.n), serial).ok));
    for (const auto& client : fp64_clients()) {
      EXPECT_NO_THROW(EXPECT_FALSE(
          run<double>(rank_one<double>(s.n),
                      [&](util::MatrixView<double> a, std::span<std::size_t> p) {
                        return client.factor(a, p, s.nb);
                      })
              .ok))
          << client.name;
    }
    for (const auto& client : dag_clients<float>()) {
      EXPECT_NO_THROW(EXPECT_FALSE(
          run<float>(rank_one<float>(s.n),
                     [&](util::MatrixView<float> a, std::span<std::size_t> p) {
                       return client.factor(a, p, s.nb);
                     })
              .ok))
          << client.name;
    }
  }
}

}  // namespace
}  // namespace xphi::blas
