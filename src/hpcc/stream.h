// STREAM (copy / scale / add / triad): the bandwidth calibration promoted
// to a first-class benchmark.
//
// The sim's machine model has always carried an achievable-STREAM-bandwidth
// line (MachineSpec::stream_bw_gbs, Table I: 76 GB/s SNB EP host, 150 GB/s
// KNC card) that every offload/native cost projection leans on — but the
// repo never *measured* the quantity it assumes. This runs the four STREAM
// kernels over the ThreadPool's dynamically-scheduled parallel_for (the
// same executor the functional GEMM uses), with the claiming grain as an
// option (`chunk`), and reports best-of-reps
// GB/s per kernel — per-thread variants come from running with pools of
// different widths, per-card variants from the MachineSpec presets the
// bench emits alongside (kind "modeled").
//
// Verification gate: the standard STREAM check. After `reps` passes of the
// copy/scale/add/triad cycle the arrays equal values computable from the
// initial conditions in closed form; the run fails if the max relative
// deviation exceeds 1e-13 (the kernels are exact per element — only the
// closed-form replay rounds differently).
#pragma once

#include <cstddef>

namespace xphi::util {
class ThreadPool;
}

namespace xphi::hpcc {

struct StreamOptions {
  /// Elements per array (three arrays of doubles this long).
  std::size_t elements = std::size_t{1} << 22;  // 32 MiB per array
  /// Timed repetitions of the 4-kernel cycle; best time per kernel wins
  /// (the STREAM rule).
  int reps = 4;
  /// parallel_for claiming grain in elements (0 = the pool's adaptive
  /// default).
  std::size_t chunk = 0;
  /// Pool to run through (null = serial on the calling thread; a pool of
  /// width W-1 measures W participating threads).
  util::ThreadPool* pool = nullptr;
};

struct StreamResult {
  bool ok = false;
  /// Max relative deviation from the closed-form expected values.
  double residual = 0;
  /// Best-of-reps bandwidth per kernel, GB/s (copy/scale move 2 arrays per
  /// element, add/triad 3 — the STREAM byte-counting convention).
  double copy_gbs = 0;
  double scale_gbs = 0;
  double add_gbs = 0;
  double triad_gbs = 0;
  double seconds = 0;  // total measured time across all reps and kernels
};

StreamResult run_stream(const StreamOptions& options = {});

}  // namespace xphi::hpcc
