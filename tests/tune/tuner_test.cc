#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <cstring>

#include "blas/lu_kernels.h"
#include "core/offload_functional.h"
#include "lu/sim_scheduler.h"
#include "sim/lu_model.h"
#include "sim/machine.h"
#include "tune/search_space.h"
#include "util/rng.h"

namespace xphi::tune {
namespace {

SearchSpace quadratic_space() {
  return SearchSpace{}
      .add("x", {0, 1, 2, 3, 4, 5, 6, 7}, 0)
      .add("y", {10, 20, 30, 40, 50}, 10);
}

// Separable bowl with its minimum at (5, 30): coordinate descent finds it
// exactly.
double quadratic_cost(const std::vector<long long>& v) {
  const double dx = static_cast<double>(v[0]) - 5.0;
  const double dy = (static_cast<double>(v[1]) - 30.0) / 10.0;
  return dx * dx + dy * dy;
}

TEST(SearchSpace, DefaultsValuesAndNearest) {
  const SearchSpace s = quadratic_space();
  ASSERT_EQ(s.dims(), 2u);
  EXPECT_EQ(s.default_point(), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(s.values_at({5, 2}), (std::vector<long long>{5, 30}));
  EXPECT_EQ(s.nearest_index(1, 34), 2u);  // 30 is closest
  EXPECT_EQ(s.nearest_index(1, 35), 2u);  // tie goes to the smaller candidate
  EXPECT_EQ(s.nearest_index(1, 1000), 4u);
  EXPECT_EQ(s.nearest_index(1, -7), 0u);
}

TEST(Tuner, FindsTheSeparableMinimum) {
  const SearchResult r = search(quadratic_space(), quadratic_cost);
  EXPECT_EQ(r.best, (std::vector<long long>{5, 30}));
  EXPECT_EQ(r.best_cost, 0.0);
  EXPECT_LE(r.best_cost, r.start_cost);
}

TEST(Tuner, BestNeverWorseThanTheStartPoint) {
  // The acceptance invariant behind "tuned >= default GF/s": the start point
  // is evaluated first, so the winner can only match or beat it.
  SearchOptions opt;
  opt.start = {5, 2};  // start *at* the optimum
  const SearchResult r = search(quadratic_space(), quadratic_cost, opt);
  EXPECT_EQ(r.start_cost, 0.0);
  EXPECT_LE(r.best_cost, r.start_cost);
  EXPECT_EQ(r.best, (std::vector<long long>{5, 30}));
}

TEST(Tuner, SameSeedSameSpaceIdenticalTrace) {
  SearchOptions opt;
  opt.seed = 1234;
  opt.budget = 20;
  const SearchResult a = search(quadratic_space(), quadratic_cost, opt);
  const SearchResult b = search(quadratic_space(), quadratic_cost, opt);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].values, b.trace[i].values) << i;
    EXPECT_EQ(a.trace[i].cost, b.trace[i].cost) << i;
    EXPECT_EQ(a.trace[i].improved, b.trace[i].improved) << i;
  }
}

TEST(Tuner, BudgetBoundsDistinctEvaluationsOnly) {
  SearchOptions opt;
  opt.budget = 7;
  opt.restarts = 5;  // plenty of revisits
  std::size_t calls = 0;
  const SearchResult r = search(
      quadratic_space(),
      [&](const std::vector<long long>& v) {
        ++calls;
        return quadratic_cost(v);
      },
      opt);
  EXPECT_LE(r.evaluations, 7u);
  // Memoized: the callback runs exactly once per distinct point.
  EXPECT_EQ(calls, r.evaluations);
  EXPECT_EQ(r.trace.size(), r.evaluations);
}

TEST(CanonicalSpaces, CoverTheDocumentedKnobs) {
  EXPECT_EQ(spaces::functional_offload().dims(), 3u);
  EXPECT_EQ(spaces::microkernel().dims(), 4u);
  // Collective dispatch: crossover + ring segment, defaulted at the World's
  // built-in constants so an unsearched space reproduces stock dispatch.
  const SearchSpace ns = spaces::net();
  ASSERT_EQ(ns.dims(), 2u);
  EXPECT_EQ(ns.dim(0).name, "net_crossover_doubles");
  EXPECT_EQ(ns.dim(1).name, "net_ring_segment");
  const auto net_defaults = ns.values_at(ns.default_point());
  EXPECT_EQ(net_defaults[0], 1024);
  EXPECT_EQ(net_defaults[1], 1024);
  // Panel critical path: cutoff + LASWP chunk, defaulted at the kernel's
  // built-in constants so an unsearched space reproduces the stock kernels.
  const SearchSpace ps = spaces::panel();
  ASSERT_EQ(ps.dims(), 2u);
  EXPECT_EQ(ps.dim(0).name, "panel_nb_min");
  EXPECT_EQ(ps.dim(1).name, "laswp_col_chunk");
  const auto defaults = ps.values_at(ps.default_point());
  EXPECT_EQ(defaults[0], 8);
  EXPECT_EQ(defaults[1],
            static_cast<long long>(xphi::blas::kLaswpColChunk));
  const SearchSpace ss = spaces::superstage(56);
  ASSERT_EQ(ss.dims(), 2u);
  // Group caps: a power-of-two ladder topped by the paper's default cap of
  // total / 2 (which need not itself be a power of two).
  const auto& caps = ss.dim(0).values;
  ASSERT_FALSE(caps.empty());
  EXPECT_EQ(caps.back(), 28);
  for (std::size_t i = 0; i + 1 < caps.size(); ++i) {
    EXPECT_LT(caps[i], 28);
    EXPECT_EQ(caps[i] & (caps[i] - 1), 0) << caps[i];
  }
  EXPECT_EQ(ss.values_at(ss.default_point())[0], 28);
}

TEST(Tuner, FingerprintIsTopologyNotNames) {
  EXPECT_EQ(default_fingerprint(),
            fingerprint(sim::MachineSpec::sandy_bridge_ep(),
                        sim::MachineSpec::knights_corner()));
  EXPECT_NE(default_fingerprint().find("card1x61c"), std::string::npos);
}

// --- Consumer integration -------------------------------------------------

TEST(Consumers, TuningChangesSpeedNeverResults) {
  // The bitwise-determinism acceptance gate: every knob point of the
  // functional offload engine produces C memcmp-equal to the defaults.
  using util::Matrix;
  constexpr std::size_t m = 96, n = 96, k = 24;
  Matrix<double> a(m, k), b(k, n), c_default(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  util::fill_hpl_matrix(c_default.view(), 3);

  core::FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = true;
  core::offload_gemm_functional(-1.0, a.view(), b.view(), c_default.view(),
                                cfg);

  const std::vector<Knobs> points = {
      Knobs{},  // unset tile extents resolve to the 64x64 default
      // Two BENCH_tune.json offload_functional winners (the sweep is
      // wall-clock, so each regeneration may pick another point).
      Knobs{.mt = 32, .nt = 128, .pack_cache_entries = 64},
      Knobs{.mt = 96, .nt = 96, .pack_cache_entries = 32},
      // Ragged tiles, a cache smaller than the grid, and mc/nc blocking
      // inside each tile product.
      Knobs{.mt = 24, .nt = 40, .pack_cache_entries = 4, .gemm_mc = 16,
            .gemm_nc = 24},
  };
  for (const Knobs& knobs : points) {
    Matrix<double> c(m, n);
    util::fill_hpl_matrix(c.view(), 3);
    cfg.knobs = knobs;
    core::offload_gemm_functional(-1.0, a.view(), b.view(), c.view(), cfg);
    EXPECT_EQ(std::memcmp(c.data(), c_default.data(),
                          m * c.ld() * sizeof(double)),
              0)
        << "mt=" << knobs.mt << " nt=" << knobs.nt
        << " gemm_mc=" << knobs.gemm_mc;
  }
}

TEST(Consumers, SuperstageKnobsReachTheScheduler) {
  // The native_lu op sweeps model_tuned_plan's group cap and regroup
  // period: the defaults reproduce the stock plan, and a non-default point
  // moves the projection.
  const sim::KncLuModel model;
  const int cores = model.spec().compute_cores();
  lu::NativeLuConfig cfg;
  cfg.n = 8000;
  cfg.nb = 240;
  const double stock =
      lu::simulate_dynamic_lu(
          cfg, model, lu::model_tuned_plan(model, cfg.n, cfg.nb, cores))
          .seconds;
  const auto space = spaces::superstage(cores);
  const auto defaults = space.values_at(space.default_point());
  const double at_defaults =
      lu::simulate_dynamic_lu(
          cfg, model,
          lu::model_tuned_plan(model, cfg.n, cfg.nb, cores,
                               static_cast<int>(defaults[0]),
                               static_cast<std::size_t>(defaults[1])))
          .seconds;
  EXPECT_EQ(at_defaults, stock);
  const double capped =
      lu::simulate_dynamic_lu(
          cfg, model, lu::model_tuned_plan(model, cfg.n, cfg.nb, cores, 2, 8))
          .seconds;
  EXPECT_NE(capped, stock);
}

}  // namespace
}  // namespace xphi::tune
