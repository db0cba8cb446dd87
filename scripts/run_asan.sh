#!/usr/bin/env bash
# Builds the memory-bearing tests under AddressSanitizer and runs them.
#
# Covers the thread pool (the on-stack parallel_for state its workers read
# through a raw pointer must outlive every worker's use of it), the
# coroutine rank scheduler and World messaging layer (mmap'd stacks,
# deadline bookkeeping shared across workers), the BLAS kernels and
# pack cache, the panel critical path, the DAG LU executor, the offload
# engine and hybrid driver, the solve server, the LU stage engine's
# differential test, the mixed-precision solver, the distributed HPL rank
# stage (isend/irecv panel and U fan-outs, pairwise row swaps), the World
# engine-conformance scripts and the HPCC workloads (PTRANS's block
# exchange buffers, GUPS's bounded update queue, STREAM's pooled arrays,
# the b_eff sweep) — the code paths where a lifetime bug would be a read of
# freed or out-of-bounds memory rather than a wrong number.
#
# test_fault stays out until the coroutine stacks carry ASan fiber
# annotations: Chaos.DeadRankSurfacesAsRecvTimeoutDiagnostic throws on a
# ucontext rank stack, and ASan's no-return handler then reports a
# stack-buffer-overflow inside sigaltstack that is not a bug in the code.
# CI-runnable: exits non-zero on any ASan report or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DXPHI_SANITIZE=address -DCMAKE_BUILD_TYPE= \
  >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_util test_net test_blas test_panel test_lu test_core test_serve \
  test_stage_engine test_mixed test_hpl test_net_conformance test_hpcc

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
"$BUILD_DIR/tests/test_util"  # thread pool handoff + the util helpers
"$BUILD_DIR/tests/test_net"  # messaging layer + coroutine scheduler
"$BUILD_DIR/tests/test_blas"
"$BUILD_DIR/tests/test_panel"
"$BUILD_DIR/tests/test_lu"
"$BUILD_DIR/tests/test_core"
"$BUILD_DIR/tests/test_serve"
"$BUILD_DIR/tests/test_stage_engine"
"$BUILD_DIR/tests/test_mixed"
"$BUILD_DIR/tests/test_hpl"              # distributed HPL rank stage
"$BUILD_DIR/tests/test_net_conformance"  # World traffic scripts, 1024 ranks
"$BUILD_DIR/tests/test_hpcc"             # PTRANS, GUPS, STREAM, b_eff + chaos

echo "ASan: all monitored suites clean."
