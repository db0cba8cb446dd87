// The artifact header every bench_suite run records, and the sample summary
// used for every metric.
//
// Header: the host probe (micro-kernel CPU description, widest ISA, measured
// core clock, nproc, last-level cache), the host ceilings derived from it,
// the build preset and type, the commit (configure-time `git rev-parse`,
// "unknown" outside git), and the run's seed/duration/mode. Each metric
// carries median, p25, p75, min, max and sample count.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xphi::bench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct HostInfo {
  std::string cpu;          // blas::mk::describe of the probe
  std::string isa;          // blas::mk::widest_isa_label
  double cpu_mhz = 0;       // measured: dependent integer-add chain
  unsigned nproc = 1;
  std::size_t llc_bytes = 0;  // last-level cache (0 = not reported)
  int f64_lanes = 1;        // doubles per vector register of `isa`

  /// Host ceiling: nproc x MHz x 2 (one add + one multiply per cycle, no
  /// FMA under -ffp-contract=off) x fp64 vector lanes.
  double peak_gflops() const { return nproc * core_peak_gflops(); }
  double core_peak_gflops() const { return cpu_mhz * 1e-3 * 2.0 * f64_lanes; }
};

/// Probes the host once (about 50 ms: the clock measurement).
HostInfo probe_host();

/// Median and quartiles computed the way Python's
/// statistics.quantiles(samples, n=4) does (its default 'exclusive' method),
/// so the suite and the tools reading its artifacts agree.
struct Summary {
  double median = 0, p25 = 0, p75 = 0, min = 0, max = 0;
  std::size_t count = 0;
};
Summary summarize(std::vector<double> samples);

/// One named metric and its raw samples.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Everything one workload (or the traced layer suite) produced.
struct RunRecord {
  std::string workload;
  bool traced = false;
  std::size_t reps = 0;          // timed repetitions (traced: 1)
  double measured_s = 0;         // wall time of the timed phase
  std::size_t attempted = 0;     // answers checked
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, std::vector<double> samples) {
    metrics.push_back({std::move(name), std::move(unit), std::move(samples)});
  }
  /// Records one check; keeps the description of the first few failures.
  void check(bool ok, const std::string& what);
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

/// Prints each metric as `workload.name median unit` plus its spread.
void print_record(const RunRecord& rec);

/// The whole artifact: header + one entry per record.
std::string artifact_json(const HostInfo& host, const RunArgs& args,
                          const std::vector<RunRecord>& records);

}  // namespace xphi::bench
