// HPCC-style multi-workload suite on the shared substrate (ROADMAP item 1).
//
// The paper benchmarks exactly one workload — HPL — but the fabric grown
// around it (net::World's cooperative rank scheduler, the pci queues, the
// fault injector) is far more general than LU. This subsystem adds the
// classic HPC Challenge companions, each a functional workload on the
// existing substrate with the full HPL treatment (verification gate,
// fault-chaos coverage, BENCH emitter):
//
//   ptrans.h  — distributed PTRANS (A = beta*A + alpha*B^T over the P x Q
//               block-cyclic grid): the pairwise transpose exchange is an
//               all-to-all pattern HPL never exercises.
//   gups.h    — GUPS / RandomAccess: seeded batched remote updates routed
//               through the pci/net queues with a configurable
//               batch/lookahead window.
//   stream.h  — STREAM (copy/scale/add/triad) through the ThreadPool: the
//               bandwidth calibration the sim's machine model carries as a
//               spec line (MachineSpec::stream_bw_gbs), promoted to a
//               first-class measured benchmark.
//   beff.h    — b_eff-style message-size x pattern latency/bandwidth sweep
//               over net::World, whose measured table seeds the
//               net_crossover_doubles / net_ring_segment knobs that were
//               previously tuned blind (spaces::net()).
//
// Every workload reports through WorkloadReport so the composite driver
// (bench/bench_hpcc_all.cc) can enforce each verification gate uniformly
// and emit one BENCH_hpcc.json.
#pragma once

#include <string>

namespace xphi::hpcc {

/// Uniform verification summary every workload result can produce: the
/// composite driver fails (nonzero exit) when any workload's `ok` is false.
struct WorkloadReport {
  std::string name;
  bool ok = false;
  /// The workload's headline figure of merit (GB/s for PTRANS/STREAM/b_eff,
  /// GUP/s for RandomAccess) and the gate value it was verified with
  /// (residual / error rate; exact semantics per workload).
  double metric = 0;
  double gate_value = 0;
  double seconds = 0;
};

}  // namespace xphi::hpcc
