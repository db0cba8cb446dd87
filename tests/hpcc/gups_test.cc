// GUPS / RandomAccess: exact replay verification, knob invariance of the
// table bits, and awkward rank counts.
#include <gtest/gtest.h>

#include "hpcc/gups.h"

namespace xphi {
namespace {

using hpcc::GupsOptions;
using hpcc::GupsResult;
using hpcc::run_gups;

TEST(Gups, ExactReplayZeroErrors) {
  GupsOptions opt;
  opt.table_bits = 12;
  const GupsResult r = run_gups(4, 42, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.error_rate, 0.0);  // deterministic transport: exactly zero
  EXPECT_EQ(r.table_size, std::size_t{1} << 12);
  EXPECT_EQ(r.total_updates, 4 * r.table_size);  // the 4x coverage default
  EXPECT_GT(r.gups, 0.0);
}

TEST(Gups, TableBitsIndependentOfBatchAndLookahead) {
  GupsOptions base;
  base.table_bits = 10;
  base.updates_per_rank = 700;  // not a multiple of any batch below
  const GupsResult ref = run_gups(4, 5, base);
  ASSERT_TRUE(ref.ok);
  for (const std::size_t batch : {std::size_t{64}, std::size_t{1024}}) {
    for (const std::size_t la : {std::size_t{1}, std::size_t{8}}) {
      GupsOptions opt = base;
      opt.batch = batch;
      opt.lookahead = la;
      const GupsResult r = run_gups(4, 5, opt);
      ASSERT_TRUE(r.ok) << "batch=" << batch << " lookahead=" << la;
      EXPECT_EQ(r.error_rate, 0.0);
      EXPECT_EQ(r.table_fnv, ref.table_fnv)
          << "batch=" << batch << " lookahead=" << la;
    }
  }
}

TEST(Gups, NonPowerOfTwoRankCount) {
  GupsOptions opt;
  opt.table_bits = 10;
  const GupsResult r3 = run_gups(3, 9, opt);
  ASSERT_TRUE(r3.ok);
  EXPECT_EQ(r3.error_rate, 0.0);
  const GupsResult r5 = run_gups(5, 9, opt);
  ASSERT_TRUE(r5.ok);
  EXPECT_EQ(r5.error_rate, 0.0);
}

TEST(Gups, SingleRankDegenerates) {
  GupsOptions opt;
  opt.table_bits = 8;
  const GupsResult r = run_gups(1, 1, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.error_rate, 0.0);
}

TEST(Gups, UpdateValuesArePureAndDistinctPerOrigin) {
  EXPECT_EQ(hpcc::gups_update_value(1, 0, 0), hpcc::gups_update_value(1, 0, 0));
  EXPECT_NE(hpcc::gups_update_value(1, 0, 0), hpcc::gups_update_value(1, 1, 0));
  EXPECT_NE(hpcc::gups_update_value(1, 0, 0), hpcc::gups_update_value(2, 0, 0));
}

}  // namespace
}  // namespace xphi
