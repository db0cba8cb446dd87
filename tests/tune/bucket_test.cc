#include "tune/bucket.h"

#include <gtest/gtest.h>

#include <limits>

namespace xphi::tune {
namespace {

TEST(BucketExtent, DegenerateAndUnit) {
  EXPECT_EQ(bucket_extent(0), 0u);
  EXPECT_EQ(bucket_extent(1), 1u);
}

TEST(BucketExtent, PowersOfTwoAreFixedPoints) {
  for (std::size_t b = 1; b <= (std::size_t{1} << 20); b <<= 1)
    EXPECT_EQ(bucket_extent(b), b) << b;
}

TEST(BucketExtent, RoundsUpToNextPowerOfTwo) {
  EXPECT_EQ(bucket_extent(3), 4u);
  EXPECT_EQ(bucket_extent(5), 8u);
  EXPECT_EQ(bucket_extent(1025), 2048u);
  // One past a power of two doubles: the boundary the tests pin.
  EXPECT_EQ(bucket_extent((std::size_t{1} << 16) + 1), std::size_t{1} << 17);
  EXPECT_EQ(bucket_extent((std::size_t{1} << 16) - 1), std::size_t{1} << 16);
}

TEST(BucketExtent, SaturatesAtTopBitInsteadOfOverflowing) {
  constexpr std::size_t kTop = std::size_t{1}
                               << (8 * sizeof(std::size_t) - 1);
  EXPECT_EQ(bucket_extent(kTop), kTop);
  EXPECT_EQ(bucket_extent(kTop + 1), kTop);
  EXPECT_EQ(bucket_extent(std::numeric_limits<std::size_t>::max()), kTop);
}

TEST(Bucket, ShapesWithinTwoXShareABucket) {
  // An 82000^2 trailing update shares a 70000^2 one's key (same 2x band) …
  EXPECT_EQ(bucket(82000, 82000, 1200), bucket(70000, 70000, 1200));
  // … but a shape an order of magnitude smaller never aliases it.
  EXPECT_NE(bucket(82000, 82000, 1200), bucket(8000, 8000, 1200));
}

TEST(Bucket, KeyIsStableAndDistinguishesDimensions) {
  EXPECT_EQ(bucket(82000, 82000, 1200).key(), "m131072_n131072_k2048");
  EXPECT_EQ(bucket(0, 1, 2).key(), "m0_n1_k2");
  // m and n are not interchangeable in the key.
  EXPECT_NE(bucket(100, 200, 50).key(), bucket(200, 100, 50).key());
}

TEST(Bucket, ConstexprUsable) {
  static_assert(bucket_extent(7) == 8);
  static_assert(bucket(3, 5, 9) == ShapeBucket{4, 8, 16});
  SUCCEED();
}

}  // namespace
}  // namespace xphi::tune
