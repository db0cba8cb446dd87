#include "suite/bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "blas/microkernel/cpu_features.h"
#include "suite/json_out.h"

#ifndef XPHI_BENCH_COMMIT
#define XPHI_BENCH_COMMIT "unknown"
#endif
#ifndef XPHI_BENCH_PRESET
#define XPHI_BENCH_PRESET ""
#endif
#ifndef XPHI_BENCH_BUILD_TYPE
#define XPHI_BENCH_BUILD_TYPE ""
#endif

namespace xphi::bench {

namespace {

/// Core clock from a chain of dependent register-register integer adds (one
/// cycle each on every x86 core since the P6; register operands, because
/// recent cores fold add-immediate chains at rename): the loop's own counter
/// runs on other ports in parallel. Best of five 50M-cycle trials, so an
/// interrupt in one trial cannot drag the estimate down. 0 off x86.
double measure_mhz() {
#if defined(__x86_64__)
  constexpr std::uint64_t kIters = 5'000'000;
  constexpr double kAddsPerIter = 10;
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    std::uint64_t x = 0;
    const std::uint64_t one = 1;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      asm volatile(
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\t"
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\t"
          "add %1, %0\n\tadd %1, %0"
          : "+r"(x)
          : "r"(one));
    }
    best = std::max(best, kIters * kAddsPerIter / since(t0) / 1e6);
  }
  return best;
#else
  return 0;
#endif
}

std::size_t last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = ::sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

int f64_lanes(const std::string& isa) {
  if (isa == "avx512f") return 8;
  if (isa == "avx2+fma") return 4;
  if (isa == "sse2") return 2;
  return 1;
}

/// Python's statistics.quantiles(data, n=4) cut point i (1..3), 'exclusive'
/// method, on sorted data with at least two points.
double quartile(const std::vector<double>& sorted, int i) {
  const long ld = static_cast<long>(sorted.size());
  const long m = ld + 1;
  long j = i * m / 4;
  j = std::clamp<long>(j, 1, ld - 1);
  const long delta = i * m - j * 4;
  return (sorted[j - 1] * (4 - delta) + sorted[j] * delta) / 4;
}

}  // namespace

HostInfo probe_host() {
  const auto& f = blas::mk::host_cpu_features();
  HostInfo h;
  h.cpu = blas::mk::describe(f);
  h.isa = blas::mk::widest_isa_label(f);
  h.cpu_mhz = measure_mhz();
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.llc_bytes = last_level_cache_bytes();
  h.f64_lanes = f64_lanes(h.isa);
  return h;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  if (n == 1) {
    s.p25 = s.p75 = samples[0];
  } else {
    s.p25 = quartile(samples, 1);
    s.p75 = quartile(samples, 3);
  }
  return s;
}

void RunRecord::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
  std::fprintf(stderr, "FAIL [%s] %s\n", workload.c_str(), what.c_str());
}

void print_record(const RunRecord& rec) {
  for (const Metric& m : rec.metrics) {
    const Summary s = summarize(m.samples);
    std::printf("%s.%s %.6g %s  p25=%.6g p75=%.6g min=%.6g max=%.6g n=%zu\n",
                rec.workload.c_str(), m.name.c_str(), s.median, m.unit.c_str(),
                s.p25, s.p75, s.min, s.max, s.count);
  }
  std::printf("%s: %zu reps in %.2f s, %zu/%zu checks failed\n",
              rec.workload.c_str(), rec.reps, rec.measured_s, rec.failed,
              rec.attempted);
  std::fflush(stdout);
}

std::string artifact_json(const HostInfo& host, const RunArgs& args,
                          const std::vector<RunRecord>& records) {
  JsonWriter w;
  w.begin_object().field("schema", "xphi-bench-suite/1");
  w.key("header").begin_object();
  w.key("host")
      .begin_object()
      .field("cpu", host.cpu)
      .field("isa", host.isa)
      .field("cpu_mhz", host.cpu_mhz)
      .field("nproc", host.nproc)
      .field("llc_bytes", host.llc_bytes)
      .field("f64_lanes", host.f64_lanes)
      .field("peak_gflops", host.peak_gflops())
      .end_object();
  w.key("build")
      .begin_object()
      .field("preset", XPHI_BENCH_PRESET)
      .field("build_type", XPHI_BENCH_BUILD_TYPE)
      .field("commit", XPHI_BENCH_COMMIT)
      .end_object();
  w.field("workload", args.workload)
      .field("seed", static_cast<double>(args.seed))
      .field("seconds", args.seconds)
      .field("trace", args.trace)
      .field("smoke", args.smoke);
  w.end_object();
  w.key("runs").begin_array();
  for (const RunRecord& rec : records) {
    w.begin_object()
        .field("workload", rec.workload)
        .field("traced", rec.traced)
        .field("reps", rec.reps)
        .field("measured_s", rec.measured_s)
        .field("attempted", rec.attempted)
        .field("failed", rec.failed);
    w.key("failures").begin_array();
    for (const std::string& f : rec.failures) w.value(f);
    w.end_array();
    w.key("metrics").begin_object();
    for (const Metric& m : rec.metrics) {
      const Summary s = summarize(m.samples);
      w.key(m.name)
          .begin_object()
          .field("unit", m.unit)
          .field("median", s.median)
          .field("p25", s.p25)
          .field("p75", s.p75)
          .field("min", s.min)
          .field("max", s.max)
          .field("count", s.count)
          .end_object();
    }
    w.end_object().end_object();
  }
  w.end_array().end_object();
  return w.str() + "\n";
}

}  // namespace xphi::bench
