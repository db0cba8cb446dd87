#!/usr/bin/env bash
# Builds the concurrency-bearing tests under ThreadSanitizer and runs them.
#
# Covers the dynamic parallel_for scheduler (thread pool), parallel packing
# and the pack cache, the pooled tiled GEMM, the panel critical-path kernels
# (pool-parallel iamax, fused LASWP, blocked TRSM), the DAG LU executor, the
# net::World messaging layer (the cooperative coroutine scheduler, via the
# TSan fiber API, plus nonblocking requests, both collective families and
# the engine-conformance suite), the weak-scaling fabric smoke run, the
# distributed HPL look-ahead schedule built on it (its ranks, on different
# worker threads, write their factors into one shared output matrix), the
# fault-injection chaos harness (retry/NACK/absorption races in the offload
# reliability protocol), and the solve server (dispatcher vs concurrent
# workers, the sharded LU cache under mixed traffic) — the code paths where
# a scheduling bug would be a data race rather than a wrong number.
# CI-runnable: exits non-zero on any race report or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DXPHI_SANITIZE=thread -DCMAKE_BUILD_TYPE= \
  >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_util test_blas test_panel test_stage_engine test_microkernel test_lu test_core test_net test_net_conformance test_hpl test_mixed test_hpcc test_fault test_tune test_serve bench_scaling bench_hpcc_all

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR/tests/test_util" --gtest_filter='ThreadPool*:SpinBarrier*'
"$BUILD_DIR/tests/test_blas" --gtest_filter='Pack*:PackCache*:Gemm*'
"$BUILD_DIR/tests/test_panel"  # pool-parallel iamax, fused LASWP, blocked TRSM
# LU stage engine clients: the look-ahead on the offload engine's pool (one
# card participant factoring the next panel before it joins its card), DAG
# workers, the serve offload path, and the pooled malleable look-ahead (one
# participant factoring the next panel while the others claim the rest's
# GEMM tiles).
"$BUILD_DIR/tests/test_stage_engine"
# The look-ahead cases again, ten times over: the panel/tile interleaving
# differs run to run, and so would a race.
"$BUILD_DIR/tests/test_stage_engine" \
  --gtest_filter='StageEngine.PooledLookahead*:StageEngine.OffloadLookahead*:StageEngine.Fp64Clients*' \
  --gtest_repeat=10
# Registry dispatch under the pooled GEMM: magic-static table init racing
# worker threads would show up here.
"$BUILD_DIR/tests/test_microkernel" --gtest_filter='Microkernel*'
"$BUILD_DIR/tests/test_lu" --gtest_filter='FunctionalDagLu*:DagLuFactor*'
# The resident offload engine: its pool serves every stage of a hybrid
# factorization and runs its panels, swaps and TRSM, and one of its card
# participants factors the look-ahead panel. Run again ten times over for
# the same reason as the stage engine's look-ahead cases.
"$BUILD_DIR/tests/test_core" --gtest_filter='OffloadFunctional*:HybridFunctional*'
"$BUILD_DIR/tests/test_core" --gtest_filter='HybridFunctional*:OffloadFunctional*' \
  --gtest_repeat=10
"$BUILD_DIR/tests/test_net"  # messaging layer + coroutine scheduler
# Engine conformance: seeded random traffic, both collective families and
# the 1024-rank bounded-pool run, all on coroutine stacks (the build maps
# them through the TSan fiber API; a missed fiber switch reports here).
"$BUILD_DIR/tests/test_net_conformance"
"$BUILD_DIR/tests/test_hpl" --gtest_filter='DistributedHpl.Lookahead*:DistributedHpl.CommStats*:DistributedHpl.DistributedResidual*'
# Every rank writes its own share of the result's factor matrix from its
# own worker thread; repeat the grid cases so a missing happens-before
# between those writes and the caller's read would show.
"$BUILD_DIR/tests/test_hpl" \
  --gtest_filter='DistributedHpl.Lookahead*:DistributedHpl.CommStats*:DistributedHpl.TwoByTwo*' \
  --gtest_repeat=5
# Mixed precision: fp32 blocked factorization, the distributed refinement
# loop on coroutine ranks, and the chaos cases (net faults + dead offload
# card mid-factor) — refinement-trace determinism under real thread
# interleaving.
"$BUILD_DIR/tests/test_mixed"
"$BUILD_DIR/tests/test_fault"  # injector determinism + the whole chaos harness
# Knob points feed the threaded offload engine: the test re-runs it with
# several explicit tune::Knobs records and compares C bit for bit.
"$BUILD_DIR/tests/test_tune" --gtest_filter='Consumers.TuningChangesSpeedNeverResults'
# Solve server: real worker threads against the virtual-time dispatcher,
# cache races under mixed traffic, chaos delays on the transport.
"$BUILD_DIR/tests/test_serve" --gtest_filter='Server.*:ShardedLuCacheTest.*:ServeChaos.*'
# HPCC workloads: PTRANS's pairwise all-to-all, GUPS's round-based remote
# updates through the bounded queue, pooled STREAM, and the b_eff sweep —
# every transport the suite touches, under the fiber-mapped scheduler.
"$BUILD_DIR/tests/test_hpcc"
# Weak-scaling smoke: real World fabric runs under TSan (park/wake and
# deliver/collect handoffs across worker threads).
"$BUILD_DIR/bench/bench_scaling" --smoke --out "$BUILD_DIR/BENCH_scaling_tsan.json"
# HPCC composite smoke: all four workloads + the HPL point on one run.
"$BUILD_DIR/bench/bench_hpcc_all" --smoke --out "$BUILD_DIR/BENCH_hpcc_tsan.json"

echo "TSan: all monitored suites clean."
