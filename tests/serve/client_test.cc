#include "serve/job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace xphi::serve {
namespace {

TEST(TrafficGen, DeterministicAndSorted) {
  TrafficConfig cfg;
  cfg.jobs = 200;
  cfg.seed = 7;
  const auto a = generate_trace(cfg);
  const auto b = generate_trace(cfg);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].matrix_seed, b[i].matrix_seed);
    EXPECT_EQ(a[i].rhs_seed, b[i].rhs_seed);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);  // bitwise
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
  }
}

TEST(TrafficGen, SeedChangesTrace) {
  TrafficConfig cfg;
  cfg.jobs = 50;
  cfg.seed = 1;
  auto a = generate_trace(cfg);
  cfg.seed = 2;
  auto b = generate_trace(cfg);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff += a[i].matrix_seed != b[i].matrix_seed ||
            a[i].arrival_s != b[i].arrival_s;
  EXPECT_GT(diff, 0u);
}

TEST(TrafficGen, RepeatMixSharesHotMatrices) {
  TrafficConfig cfg;
  cfg.mix = Mix::kRepeatRhs;
  cfg.jobs = 300;
  cfg.hot_matrices = 4;
  const auto trace = generate_trace(cfg);
  std::set<std::uint64_t> seeds;
  for (const Job& j : trace) seeds.insert(j.matrix_seed);
  // 85% of 300 jobs share 4 hot seeds; the cold rest are unique. Far fewer
  // distinct matrices than jobs.
  EXPECT_LT(seeds.size(), trace.size() / 2);
  // Every rhs is fresh even when the matrix repeats.
  std::set<std::uint64_t> rhs;
  for (const Job& j : trace) rhs.insert(j.rhs_seed);
  EXPECT_EQ(rhs.size(), trace.size());
}

TEST(TrafficGen, UniformMixMostlyUniqueMatrices) {
  TrafficConfig cfg;
  cfg.mix = Mix::kUniform;
  cfg.jobs = 200;
  const auto trace = generate_trace(cfg);
  std::set<std::uint64_t> seeds;
  for (const Job& j : trace) seeds.insert(j.matrix_seed);
  EXPECT_GT(seeds.size(), trace.size() / 2);
}

TEST(TrafficGen, BurstyMixHasGaps) {
  TrafficConfig cfg;
  cfg.mix = Mix::kBursty;
  cfg.jobs = 64;
  cfg.burst_len = 8;
  cfg.burst_gap_us = 4000;
  cfg.burst_spacing_us = 20;
  const auto trace = generate_trace(cfg);
  // Every 8th inter-arrival is the big gap, the rest are tight.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double dt = trace[i].arrival_s - trace[i - 1].arrival_s;
    if (i % 8 == 0)
      EXPECT_NEAR(dt, 4000e-6, 1e-12);
    else
      EXPECT_NEAR(dt, 20e-6, 1e-12);
  }
}

TEST(TrafficGen, BothLanesAndAllTenantsRepresented) {
  TrafficConfig cfg;
  cfg.jobs = 200;
  cfg.tenants = 3;
  const auto trace = generate_trace(cfg);
  std::set<int> tenants;
  std::size_t interactive = 0, batch = 0;
  for (const Job& j : trace) {
    tenants.insert(j.tenant);
    (j.lane == Lane::kInteractive ? interactive : batch) += 1;
  }
  EXPECT_EQ(tenants.size(), 3u);
  EXPECT_GT(interactive, 0u);
  EXPECT_GT(batch, 0u);
}

TEST(TraceText, RoundTripsExactly) {
  TrafficConfig cfg;
  cfg.mix = Mix::kBursty;
  cfg.jobs = 40;
  cfg.seed = 99;
  const auto trace = generate_trace(cfg);
  const std::string text = trace_to_text(trace);
  std::vector<Job> back;
  ASSERT_TRUE(trace_from_text(text, &back));
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].id, trace[i].id);
    EXPECT_EQ(back[i].tenant, trace[i].tenant);
    EXPECT_EQ(back[i].lane, trace[i].lane);
    EXPECT_EQ(back[i].arrival_s, trace[i].arrival_s);  // bitwise (hex float)
    EXPECT_EQ(back[i].n, trace[i].n);
    EXPECT_EQ(back[i].matrix_seed, trace[i].matrix_seed);
    EXPECT_EQ(back[i].rhs_seed, trace[i].rhs_seed);
  }
}

TEST(TraceText, RejectsMalformedInput) {
  std::vector<Job> out;
  EXPECT_FALSE(trace_from_text("", &out));
  EXPECT_FALSE(trace_from_text("not-a-trace v1 1\n", &out));
  EXPECT_FALSE(trace_from_text("xphi-trace v3 0\n", &out));
  EXPECT_FALSE(trace_from_text("xphi-trace v2 1\n1 0 0 0x0p+0 64 1 2\n",
                               &out));  // v2 line missing precision token
  EXPECT_FALSE(trace_from_text("xphi-trace v2 1\n1 0 0 0x0p+0 64 1 2 fp16\n",
                               &out));  // unknown precision
  EXPECT_FALSE(trace_from_text("xphi-trace v1 1\n1 0 7 0x0p+0 64 1 2\n",
                               &out));  // lane out of range
  EXPECT_FALSE(trace_from_text("xphi-trace v1 2\n0 0 0 0x0p+0 64 1 2\n",
                               &out));  // truncated
}

TEST(TraceText, FullRangeSeedsSurvive) {
  Job j;
  j.id = 3;
  j.rhs_seed = 0xfedcba9876543210ull;  // not representable in a double
  j.matrix_seed = 0xffffffffffffffffull;
  j.n = 96;
  const std::string text = trace_to_text({j});
  std::vector<Job> back;
  ASSERT_TRUE(trace_from_text(text, &back));
  EXPECT_EQ(back[0].rhs_seed, 0xfedcba9876543210ull);
  EXPECT_EQ(back[0].matrix_seed, 0xffffffffffffffffull);
}

}  // namespace
}  // namespace xphi::serve
