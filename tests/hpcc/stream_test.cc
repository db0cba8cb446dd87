// STREAM: the closed-form verification gate under serial, pooled and
// explicit-chunk execution.
#include <gtest/gtest.h>

#include <cmath>

#include "hpcc/stream.h"
#include "util/thread_pool.h"

namespace xphi {
namespace {

using hpcc::StreamOptions;
using hpcc::StreamResult;
using hpcc::run_stream;

TEST(Stream, SerialVerifies) {
  StreamOptions opt;
  opt.elements = 1 << 14;
  opt.reps = 3;
  const StreamResult r = run_stream(opt);
  ASSERT_TRUE(r.ok);
  EXPECT_LT(r.residual, 1e-13);
  EXPECT_GT(r.copy_gbs, 0.0);
  EXPECT_GT(r.scale_gbs, 0.0);
  EXPECT_GT(r.add_gbs, 0.0);
  EXPECT_GT(r.triad_gbs, 0.0);
}

TEST(Stream, PooledVerifies) {
  util::ThreadPool pool(3);
  StreamOptions opt;
  opt.elements = 1 << 16;
  opt.reps = 2;
  opt.pool = &pool;
  const StreamResult r = run_stream(opt);
  ASSERT_TRUE(r.ok);
  EXPECT_LT(r.residual, 1e-13);
  EXPECT_GT(r.triad_gbs, 0.0);
}

TEST(Stream, ExplicitChunkVerifies) {
  util::ThreadPool pool(2);
  for (const std::size_t chunk : {std::size_t{1000}, std::size_t{65536}}) {
    StreamOptions opt;
    opt.elements = 50000;  // ragged against both chunks
    opt.reps = 2;
    opt.chunk = chunk;
    opt.pool = &pool;
    const StreamResult r = run_stream(opt);
    ASSERT_TRUE(r.ok) << "chunk=" << chunk;
    EXPECT_LT(r.residual, 1e-13);
  }
}

TEST(Stream, TinyArrayStillFinite) {
  StreamOptions opt;
  opt.elements = 3;
  opt.reps = 1;
  const StreamResult r = run_stream(opt);
  ASSERT_TRUE(r.ok);
  // The clock floor keeps bandwidths finite even when a kernel is faster
  // than the timer tick.
  EXPECT_TRUE(std::isfinite(r.copy_gbs));
  EXPECT_TRUE(std::isfinite(r.triad_gbs));
}

}  // namespace
}  // namespace xphi
