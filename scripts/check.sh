#!/usr/bin/env bash
# One-stop verification gate: builds everything, runs the tier-1 ctest
# suite, rebuilds everything with -DXPHI_WERROR=ON, re-runs the labelled
# subsets that exercise the messaging layer
# (-L net: the coroutine World, the engine-conformance suite, the chaos
# harness, distributed HPL and the bench_scaling smoke gate), the
# fault-injection chaos harness (-L fault), the autotuning subsystem
# (-L tune), the panel critical-path kernels (-L panel), the
# micro-kernel registry (-L microkernel) and the HPCC workload suite
# (-L hpcc: PTRANS/GUPS/STREAM/b_eff plus the bench_hpcc_all smoke gate),
# then re-runs the microkernel,
# serve, net and hpcc suites under both ISA presets (XPHI_ARCH=native and the
# sse2 baseline, so every compiled dispatch tier is exercised) and repeats
# the concurrency-bearing suites under ThreadSanitizer and the memory-bearing
# ones under AddressSanitizer. Exits non-zero on the first failure;
# CI-runnable.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

echo "== build =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== tier-1 ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Every target (library, tests, benches, examples) must also build with
# warnings as errors, so a new warning fails here instead of piling up.
echo "== build -DXPHI_WERROR=ON =="
cmake -B "${BUILD_DIR}-werror" -S . -DXPHI_WERROR=ON >/dev/null
cmake --build "${BUILD_DIR}-werror" -j"$(nproc)"

echo "== ctest -L net =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L net

echo "== ctest -L fault =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L fault

echo "== ctest -L tune =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L tune

echo "== ctest -L panel =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L panel

echo "== ctest -L microkernel =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L microkernel

echo "== ctest -L mixed =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L mixed

echo "== ctest -L serve =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L serve

echo "== ctest -L hpcc =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L hpcc

# The registry's bitwise-determinism contract is cross-preset: the same
# sources built with -march=native and with the x86-64 baseline must
# dispatch correctly and agree bit for bit with gemm_ref under each
# kernel's contract (fused fp64 at the avx2/avx512 tiers, unfused
# elsewhere; the per-TU flags make the tier, not the preset, decide).
# Build the microkernel suite under both presets and run it in each. The serve suite
# rides along: its responses and decision hashes must also be preset-blind
# (the dispatcher's virtual time never sees the ISA). The mixed-precision
# suite runs in both too — the fp32 tables have their own per-ISA variants
# and the refinement trace must be preset-blind at each dispatch tier.
for arch in native sse2; do
  echo "== ctest -L microkernel + mixed + serve + net + hpcc (XPHI_ARCH=$arch) =="
  ARCH_DIR="${BUILD_DIR}-${arch}"
  cmake -B "$ARCH_DIR" -S . -DXPHI_ARCH="$arch" >/dev/null
  cmake --build "$ARCH_DIR" -j"$(nproc)" --target test_microkernel test_mixed test_serve bench_serve \
    test_net test_net_conformance test_fault test_hpl test_hpcc bench_scaling bench_hpcc_all bench_mixed
  ctest --test-dir "$ARCH_DIR" --output-on-failure -L microkernel
  ctest --test-dir "$ARCH_DIR" --output-on-failure -L mixed
  ctest --test-dir "$ARCH_DIR" --output-on-failure -L serve
  ctest --test-dir "$ARCH_DIR" --output-on-failure -L net
  ctest --test-dir "$ARCH_DIR" --output-on-failure -L hpcc
done

echo "== ThreadSanitizer =="
"$(dirname "$0")/run_tsan.sh"

echo "== AddressSanitizer =="
"$(dirname "$0")/run_asan.sh"

echo "check.sh: all gates passed."
