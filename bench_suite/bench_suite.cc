// bench_suite: the repository's end-to-end benchmark in one command.
//
//   bench_suite --workload <name|all> [--seed N] [--seconds S] [--trace]
//               [--smoke] [--out PATH]
//
// Without --trace it runs the named timed workloads (suite/workloads.h) and
// reports setup_s, gflops and latency_ms for each. With --trace it runs the
// traced layer suite instead (suite/layers.h), which reports the per-layer
// metrics. --smoke shrinks every size so the whole thing takes seconds while
// keeping every correctness gate armed. Every metric is printed as
// `workload.name median unit` with its quartiles, min, max and sample count,
// and the artifact at --out (default BENCH_suite.json) carries the same
// numbers under the shared header (suite/bench_common.h). The exit code is
// nonzero if any check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "suite/bench_common.h"
#include "suite/layers.h"
#include "suite/workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name|all> [--seed N] [--seconds S] "
               "[--trace] [--smoke] [--out PATH]\nworkloads:",
               argv0);
  for (const auto& w : xphi::bench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool known_workload(const std::string& name) {
  if (name == "all") return true;
  for (const auto& w : xphi::bench::workload_names())
    if (w == name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xphi::bench;
  RunArgs args;
  std::string out = "BENCH_suite.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--out" && has_value) {
      out = argv[++i];
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!known_workload(args.workload) || !(args.seconds >= 0))
    return usage(argv[0]);
  const Sizes sizes = args.smoke ? Sizes::smoke() : Sizes{};
  if (args.smoke) args.seconds = 0;

  const HostInfo host = probe_host();
  std::printf("host: %s | %s @ %.0f MHz x %u | peak %.1f GF/s fp64\n",
              host.cpu.c_str(), host.isa.c_str(), host.cpu_mhz, host.nproc,
              host.peak_gflops());

  std::vector<RunRecord> records;
  try {
    if (args.trace) {
      records.push_back(run_layers(args, sizes, host));
      print_record(records.back());
    } else {
      for (const std::string& w : workload_names()) {
        if (args.workload != "all" && args.workload != w) continue;
        records.push_back(run_workload(w, args, sizes));
        print_record(records.back());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }

  std::size_t failed = 0;
  for (const RunRecord& r : records) failed += r.failed;
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", out.c_str());
    return 1;
  }
  const std::string json = artifact_json(host, args, records);
  const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "bench_suite: short write to %s\n", out.c_str());
    return 1;
  }
  if (failed != 0) {
    std::fprintf(stderr, "bench_suite: %zu checks failed\n", failed);
    return 1;
  }
  return 0;
}
