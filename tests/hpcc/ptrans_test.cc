// Distributed PTRANS: bitwise gates against the serial reference, ragged
// process grids, and collective-dispatch invariance (forced tree vs forced
// ring must not change a single bit of the assembled matrix).
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "hpcc/ptrans.h"
#include "util/matrix.h"

namespace xphi {
namespace {

using hpcc::PtransOptions;
using hpcc::PtransResult;
using hpcc::ptrans_reference;
using hpcc::run_ptrans;
using hpl::Grid;
using util::Matrix;

TEST(Ptrans, SquareGridMatchesReferenceBitwise) {
  const std::size_t n = 64;
  PtransOptions opt;
  opt.nb = 16;
  const PtransResult r = run_ptrans(n, Grid{2, 2}, 7, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.residual, 0.0);
  const Matrix<double> ref = ptrans_reference(n, 7);
  ASSERT_EQ(r.a.rows(), n);
  EXPECT_EQ(util::max_abs_diff<double>(r.a.view(), ref.view()), 0.0);
}

TEST(Ptrans, SingleRankGrid) {
  const PtransResult r = run_ptrans(33, Grid{1, 1}, 3);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.residual, 0.0);
  EXPECT_EQ(r.gbytes_per_s, 0.0);  // nothing crossed a rank boundary
}

TEST(Ptrans, NonUnitAlphaBetaStaysBitwise) {
  PtransOptions opt;
  opt.nb = 16;
  opt.alpha = -2.5;
  opt.beta = 0.5;
  const PtransResult r = run_ptrans(48, Grid{2, 2}, 11, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.residual, 0.0);
  const Matrix<double> ref = ptrans_reference(48, 11, opt.alpha, opt.beta);
  EXPECT_EQ(util::max_abs_diff<double>(r.a.view(), ref.view()), 0.0);
}

TEST(Ptrans, MatrixSmallerThanOneBlock) {
  PtransOptions opt;
  opt.nb = 16;
  const PtransResult r = run_ptrans(10, Grid{2, 2}, 5, opt);
  ASSERT_TRUE(r.ok);
  const Matrix<double> ref = ptrans_reference(10, 5);
  EXPECT_EQ(util::max_abs_diff<double>(r.a.view(), ref.view()), 0.0);
}

/// The ISSUE's ragged-grid gate: non-square P x Q with N not divisible by
/// nb, run under both forced collective dispatch modes, bit-compared
/// against each other and the serial reference.
void ragged_grid_case(int p, int q) {
  const std::size_t n = 70;  // 70 = 4*16 + 6: ragged against nb = 16
  PtransOptions tree;
  tree.nb = 16;
  tree.net_crossover_doubles = std::numeric_limits<std::size_t>::max();
  PtransOptions ring = tree;
  ring.net_crossover_doubles = 1;  // everything above 1 double rides the ring
  ring.net_ring_segment = 128;

  const PtransResult rt = run_ptrans(n, Grid{p, q}, 13, tree);
  const PtransResult rr = run_ptrans(n, Grid{p, q}, 13, ring);
  ASSERT_TRUE(rt.ok);
  ASSERT_TRUE(rr.ok);
  EXPECT_EQ(rt.residual, 0.0);
  EXPECT_EQ(rr.residual, 0.0);

  const Matrix<double> ref = ptrans_reference(n, 13);
  EXPECT_EQ(util::max_abs_diff<double>(rt.a.view(), ref.view()), 0.0);
  EXPECT_EQ(util::max_abs_diff<double>(rr.a.view(), rt.a.view()), 0.0);
  EXPECT_EQ(rr.checksum, rt.checksum);  // order-pinned ring allreduce

  // The dispatch counters prove the forcing took effect.
  std::size_t tree_trees = 0, tree_rings = 0, ring_trees = 0, ring_rings = 0;
  for (const auto& s : rt.comm_stats) {
    tree_trees += s.tree_collectives;
    tree_rings += s.ring_collectives;
  }
  for (const auto& s : rr.comm_stats) {
    ring_trees += s.tree_collectives;
    ring_rings += s.ring_collectives;
  }
  EXPECT_GT(tree_trees, 0u);
  EXPECT_EQ(tree_rings, 0u);
  EXPECT_GT(ring_rings, 0u);
  EXPECT_EQ(ring_trees, 0u);
}

TEST(Ptrans, RaggedGrid2x3ForcedTreeVsRingBitwise) { ragged_grid_case(2, 3); }
TEST(Ptrans, RaggedGrid3x2ForcedTreeVsRingBitwise) { ragged_grid_case(3, 2); }

TEST(Ptrans, SkipGatherStillVerifies) {
  PtransOptions opt;
  opt.nb = 16;
  opt.skip_gather = true;
  const PtransResult r = run_ptrans(40, Grid{2, 2}, 9, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.residual, 0.0);
  EXPECT_EQ(r.a.rows(), 0u);
}

TEST(Ptrans, TransposeBlockedRectangular) {
  Matrix<double> src(37, 53), dst(53, 37);
  util::fill_hpl_matrix(src.view(), 21);
  hpcc::transpose_blocked(std::as_const(src).view(), dst.view());
  for (std::size_t i = 0; i < src.rows(); ++i)
    for (std::size_t j = 0; j < src.cols(); ++j)
      ASSERT_EQ(dst(j, i), src(i, j));
}

}  // namespace
}  // namespace xphi
