#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blas/getrf.h"
#include "blas/lu_kernels.h"
#include "blas/residual.h"
#include "hpl/mixed.h"
#include "serve/job.h"
#include "trace/timeline.h"
#include "util/rng.h"

namespace xphi::serve {
namespace {

/// Max |A x - b| for one job's reported solution.
double solve_residual(const Job& job, const std::vector<double>& x) {
  std::vector<double> b(job.n);
  util::Rng rng(job.rhs_seed);
  for (std::size_t i = 0; i < job.n; ++i) b[i] = rng.next_centered();
  double worst = 0;
  for (std::size_t r = 0; r < job.n; ++r) {
    double acc = 0;
    for (std::size_t c = 0; c < job.n; ++c)
      acc += util::hpl_entry(job.matrix_seed, r, c) * x[c];
    worst = std::max(worst, std::abs(acc - b[r]));
  }
  return worst;
}

TrafficConfig small_traffic(Mix mix, std::size_t jobs = 40) {
  TrafficConfig cfg;
  cfg.mix = mix;
  cfg.jobs = jobs;
  cfg.sizes = {32, 48, 64};
  cfg.seed = 11;
  return cfg;
}

TEST(Server, AnswersEveryJobCorrectly) {
  const auto trace = generate_trace(small_traffic(Mix::kUniform));
  ServeConfig cfg;
  cfg.workers = 2;
  const ServeReport report = run_server(trace, cfg);
  ASSERT_EQ(report.jobs.size(), trace.size());
  EXPECT_EQ(report.completed + report.rejected, trace.size());
  EXPECT_EQ(report.rejected, 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const JobOutcome& out = report.jobs[i];
    ASSERT_EQ(out.x.size(), trace[i].n);
    EXPECT_LT(solve_residual(trace[i], out.x), 1e-8);
    EXPECT_GT(out.virtual_latency_s, 0);
    EXPECT_GE(out.worker, 0);
  }
  EXPECT_GT(report.batches, 0u);
  EXPECT_GT(report.p99_virtual_latency_s, 0);
  EXPECT_GE(report.p99_virtual_latency_s, report.p50_virtual_latency_s);
  EXPECT_GT(report.throughput_jobs_per_s, 0);
  EXPECT_EQ(report.soft_cap_breaches, 0u);
}

TEST(Server, DeterministicDecisionsAndBitwiseResponses) {
  const auto trace = generate_trace(small_traffic(Mix::kRepeatRhs, 48));
  ServeConfig cfg;
  cfg.workers = 3;
  const ServeReport a = run_server(trace, cfg);
  const ServeReport b = run_server(trace, cfg);
  EXPECT_EQ(a.decision_hash, b.decision_hash);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i)
    EXPECT_EQ(a.decisions[i], b.decisions[i]);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_EQ(a.jobs[i].x.size(), b.jobs[i].x.size());
    for (std::size_t k = 0; k < a.jobs[i].x.size(); ++k)
      EXPECT_EQ(a.jobs[i].x[k], b.jobs[i].x[k]);  // bitwise
    EXPECT_EQ(a.jobs[i].virtual_latency_s, b.jobs[i].virtual_latency_s);
    EXPECT_EQ(a.jobs[i].worker, b.jobs[i].worker);
    EXPECT_EQ(a.jobs[i].batch_id, b.jobs[i].batch_id);
  }
  // The virtual timeline is part of the deterministic surface too.
  ASSERT_EQ(a.timeline.spans().size(), b.timeline.spans().size());
  EXPECT_EQ(trace::timeline_to_json(a.timeline),
            trace::timeline_to_json(b.timeline));
}

TEST(Server, AdmissionRejectsWhenLaneQueueFull) {
  auto traffic = small_traffic(Mix::kBursty, 60);
  traffic.burst_len = 20;
  traffic.burst_spacing_us = 1;  // whole burst lands inside one service time
  const auto trace = generate_trace(traffic);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.worker_inflight = 1;
  cfg.admission_queue = 3;
  const ServeReport report = run_server(trace, cfg);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(report.completed + report.rejected, trace.size());
  EXPECT_EQ(report.soft_cap_breaches, 0u);  // backpressure held the bound
  bool saw_reject_line = false;
  for (const std::string& line : report.decisions)
    saw_reject_line |= line.find("reject job=") == 0;
  EXPECT_TRUE(saw_reject_line);
  for (const JobOutcome& out : report.jobs) {
    if (out.rejected) {
      EXPECT_TRUE(out.x.empty());
    }
  }
}

TEST(Server, SoftCapBreachesSurfaceWhenMisconfigured) {
  auto traffic = small_traffic(Mix::kBursty, 40);
  traffic.burst_len = 20;
  traffic.burst_spacing_us = 1;
  const auto trace = generate_trace(traffic);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.worker_inflight = 16;  // overrun a single worker's mailbox...
  cfg.mailbox_soft_cap = 2;  // ...past a deliberately tiny soft cap
  const ServeReport report = run_server(trace, cfg);
  EXPECT_GT(report.soft_cap_breaches, 0u);
  // Soft caps log and count — they never drop work.
  EXPECT_EQ(report.completed + report.rejected, trace.size());
}

TEST(Server, CacheHitsOnRepeatTrafficAndNeverWithCacheOff) {
  const auto trace = generate_trace(small_traffic(Mix::kRepeatRhs, 48));
  ServeConfig cfg;
  cfg.workers = 2;
  const ServeReport warm = run_server(trace, cfg);
  EXPECT_GT(warm.cache_hits, 0u);
  cfg.use_cache = false;
  const ServeReport cold = run_server(trace, cfg);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.batches);
  // Identical answers either way.
  for (std::size_t i = 0; i < trace.size(); ++i)
    for (std::size_t k = 0; k < warm.jobs[i].x.size(); ++k)
      EXPECT_EQ(warm.jobs[i].x[k], cold.jobs[i].x[k]);
}

TEST(Server, BatchingCoalescesCompatibleJobs) {
  auto traffic = small_traffic(Mix::kRepeatRhs, 48);
  traffic.interactive_fraction = 0;  // batch lane only
  traffic.hot_matrices = 2;
  traffic.sizes = {48};
  const auto trace = generate_trace(traffic);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.batch_window_us = 2000;  // generous coalescing window
  const ServeReport report = run_server(trace, cfg);
  EXPECT_LT(report.batches, trace.size());  // strictly fewer batches than jobs
  // At least one super-stage carries several jobs, and batches only ever
  // coalesce compatible work.
  std::map<std::uint64_t, std::vector<std::size_t>> by_batch;
  for (std::size_t i = 0; i < report.jobs.size(); ++i)
    by_batch[report.jobs[i].batch_id].push_back(i);
  std::size_t largest = 0;
  for (const auto& [id, members] : by_batch) {
    largest = std::max(largest, members.size());
    for (std::size_t m : members) {
      EXPECT_EQ(trace[m].n, trace[members[0]].n);
      EXPECT_EQ(trace[m].matrix_seed, trace[members[0]].matrix_seed);
    }
  }
  EXPECT_GT(largest, 1u);
}

TEST(Server, StarvationProtectionPromotesAgedBatchWork) {
  // One batch job at t=0 under continuous interactive pressure. With the
  // starvation bound it must dispatch before the interactive stream ends.
  std::vector<Job> trace;
  Job batch_job;
  batch_job.id = 0;
  batch_job.lane = Lane::kBatch;
  batch_job.arrival_s = 0;
  batch_job.n = 48;
  batch_job.matrix_seed = 101;
  batch_job.rhs_seed = 5001;
  trace.push_back(batch_job);
  for (std::uint64_t i = 1; i <= 40; ++i) {
    Job j;
    j.id = i;
    j.lane = Lane::kInteractive;
    j.arrival_s = static_cast<double>(i) * 50e-6;
    j.n = 48;
    j.matrix_seed = 200 + i;
    j.rhs_seed = 6000 + i;
    trace.push_back(j);
  }
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.worker_inflight = 1;
  cfg.lane_weight = 1000;      // weight alone would starve the batch lane
  cfg.batch_window_us = 100;
  cfg.starvation_age_us = 500;
  const ServeReport report = run_server(trace, cfg);
  EXPECT_EQ(report.rejected, 0u);
  std::ptrdiff_t batch_at = -1, last_interactive_at = -1;
  for (std::size_t i = 0; i < report.decisions.size(); ++i) {
    if (report.decisions[i].find("lane=batch") != std::string::npos)
      batch_at = static_cast<std::ptrdiff_t>(i);
    if (report.decisions[i].find("lane=interactive") != std::string::npos)
      last_interactive_at = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(batch_at, 0);
  EXPECT_LT(batch_at, last_interactive_at);
}

TEST(Server, MixedPrecisionJobsEndToEnd) {
  // Half the traffic requests mixed precision: mixed jobs must come back
  // bitwise-equal to the sequential factor_mixed + refine_mixed oracle,
  // fp64 jobs bitwise-equal to the classic fp64 path, batches must never
  // coalesce across precisions, and the dispatch log must say which is which.
  auto traffic = small_traffic(Mix::kRepeatRhs, 48);
  traffic.mixed_fraction = 0.5;
  const auto trace = generate_trace(traffic);
  std::size_t n_mixed = 0, n_fp64 = 0;
  for (const Job& j : trace)
    (j.precision == hpl::Precision::kMixed ? n_mixed : n_fp64)++;
  ASSERT_GT(n_mixed, 0u);
  ASSERT_GT(n_fp64, 0u);

  ServeConfig cfg;
  cfg.workers = 2;
  const ServeReport report = run_server(trace, cfg);
  EXPECT_EQ(report.rejected, 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const JobOutcome& out = report.jobs[i];
    ASSERT_EQ(out.x.size(), trace[i].n);
    EXPECT_EQ(out.precision, trace[i].precision);
    const std::size_t n = trace[i].n;
    util::Matrix<double> a(n, n);
    util::fill_hpl_matrix(a.view(), trace[i].matrix_seed);
    std::vector<double> b(n);
    util::Rng rng(trace[i].rhs_seed);
    for (auto& v : b) v = rng.next_centered();
    if (trace[i].precision == hpl::Precision::kMixed) {
      hpl::MixedOptions mo;
      mo.nb = cfg.nb;
      hpl::MixedFactors f;
      ASSERT_TRUE(hpl::factor_mixed(a.view(), f, mo));
      const hpl::MixedSolveResult sol = hpl::refine_mixed(a.view(), b, f);
      ASSERT_TRUE(sol.ok);
      for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(out.x[k], sol.x[k]) << "job " << i << " k=" << k;
    } else {
      std::vector<std::size_t> ipiv(n);
      ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, cfg.nb));
      std::vector<double> x = b;
      blas::lu_solve_vector<double>(a.view(), ipiv, x);
      for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(out.x[k], x[k]) << "job " << i << " k=" << k;
    }
    EXPECT_LT(solve_residual(trace[i], out.x), 1e-8);
  }
  // Batches never coalesce across precisions.
  std::map<std::uint64_t, std::vector<std::size_t>> by_batch;
  for (std::size_t i = 0; i < report.jobs.size(); ++i)
    by_batch[report.jobs[i].batch_id].push_back(i);
  for (const auto& [id, members] : by_batch)
    for (std::size_t m : members)
      EXPECT_EQ(trace[m].precision, trace[members[0]].precision)
          << "batch " << id;
  // The dispatch log labels both precisions.
  bool saw_mixed = false, saw_fp64 = false;
  for (const std::string& line : report.decisions) {
    saw_mixed |= line.find("prec=mixed") != std::string::npos;
    saw_fp64 |= line.find("prec=fp64") != std::string::npos;
  }
  EXPECT_TRUE(saw_mixed);
  EXPECT_TRUE(saw_fp64);
}

TEST(Server, MixedJobWhoseRefinementStallsIsAnswered) {
  // The fp32 refinement stalls on this matrix for every right-hand side:
  // the worker answers through an fp64 factor + solve instead of failing.
  Job job;
  job.n = 128;
  job.matrix_seed = 9667988852215289810ull;
  job.rhs_seed = 16151164257109089609ull;
  job.precision = hpl::Precision::kMixed;
  ServeConfig cfg;
  cfg.workers = 1;
  const ServeReport report = run_server({job}, cfg);
  ASSERT_EQ(report.jobs.size(), 1u);
  ASSERT_FALSE(report.jobs[0].rejected);
  ASSERT_EQ(report.jobs[0].x.size(), job.n);
  util::Matrix<double> a(job.n, job.n);
  util::fill_hpl_matrix(a.view(), job.matrix_seed);
  std::vector<double> b(job.n);
  util::Rng rng(job.rhs_seed);
  for (auto& v : b) v = rng.next_centered();
  EXPECT_LT(blas::hpl_residual<double>(a.view(), report.jobs[0].x, b),
            blas::kHplResidualThreshold);
}

TEST(Server, MixedTrafficCacheAnswersBitwiseIdentical) {
  // Cache on vs off may not change a bit of any answer, mixed included —
  // fp32 factors are deterministic, so a hit replays the first factor's
  // exact bits through the refinement.
  auto traffic = small_traffic(Mix::kRepeatRhs, 48);
  traffic.mixed_fraction = 1.0;  // all-mixed repeat traffic
  const auto trace = generate_trace(traffic);
  ServeConfig cfg;
  cfg.workers = 2;
  const ServeReport warm = run_server(trace, cfg);
  EXPECT_GT(warm.cache_hits, 0u);
  cfg.use_cache = false;
  const ServeReport cold = run_server(trace, cfg);
  EXPECT_EQ(cold.cache_hits, 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(warm.jobs[i].x.size(), cold.jobs[i].x.size());
    for (std::size_t k = 0; k < warm.jobs[i].x.size(); ++k)
      EXPECT_EQ(warm.jobs[i].x[k], cold.jobs[i].x[k]);
  }
}

TEST(Server, AllFp64TraceUnchangedByMixedFraction) {
  // mixed_fraction = 0 must not even draw from the RNG: the generated trace
  // is bit-for-bit the pre-mixed-precision one.
  const auto a = generate_trace(small_traffic(Mix::kUniform, 32));
  auto traffic = small_traffic(Mix::kUniform, 32);
  traffic.mixed_fraction = 0;
  const auto b = generate_trace(traffic);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].precision, hpl::Precision::kFp64);
    EXPECT_EQ(a[i].matrix_seed, b[i].matrix_seed);
    EXPECT_EQ(a[i].rhs_seed, b[i].rhs_seed);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
  }
}

TEST(Server, TenantRollupsAccountForEveryJob) {
  const auto trace = generate_trace(small_traffic(Mix::kUniform, 40));
  ServeConfig cfg;
  cfg.workers = 2;
  const ServeReport report = run_server(trace, cfg);
  std::size_t jobs = 0, rejected = 0;
  double busy = 0, bytes = 0;
  for (const TenantRollup& t : report.tenants) {
    jobs += t.jobs;
    rejected += t.rejected;
    busy += t.worker_busy_s;
    bytes += t.comm_bytes;
    if (t.jobs > t.rejected) {
      EXPECT_GT(t.p50_virtual_latency_s, 0);
      EXPECT_GE(t.p99_virtual_latency_s, t.p50_virtual_latency_s);
    }
  }
  EXPECT_EQ(jobs, trace.size());
  EXPECT_EQ(rejected, report.rejected);
  EXPECT_GT(busy, 0);
  EXPECT_GT(bytes, 0);
  // Attributed busy time equals the timeline's span area (same model).
  double span_area = 0;
  for (const auto& s : report.timeline.spans()) span_area += s.duration();
  EXPECT_NEAR(busy, span_area, 1e-9);
}

TEST(Server, TimelineExportsAsJson) {
  const auto trace = generate_trace(small_traffic(Mix::kUniform, 12));
  ServeConfig cfg;
  cfg.workers = 2;
  const ServeReport report = run_server(trace, cfg);
  EXPECT_GT(report.timeline.spans().size(), 0u);
  const std::string json = trace::timeline_to_json(report.timeline);
  EXPECT_NE(json.find("\"schema\": \"xphi-timeline\""), std::string::npos);
  EXPECT_NE(json.find("DGETRF"), std::string::npos);  // factor spans
  EXPECT_NE(json.find("DTRSM"), std::string::npos);   // solve spans
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(percentile({3, 1, 2}, 0.5), 2);
  EXPECT_EQ(percentile({3, 1, 2}, 0.99), 3);
  EXPECT_EQ(percentile({5}, 0.01), 5);
}

}  // namespace
}  // namespace xphi::serve
