// Baseline-ISA kernel variants. CMake pins this TU to the x86-64 baseline
// (SSE2) even under the -march=native preset, so "…@generic" always means
// the same code a stock build runs — the frozen baseline bench_gemm
// compares dispatched kernels against. No FMA at this tier: every kernel
// here, fp64 and fp32, keeps the unfused contract.
#define XPHI_MK_TU_NS isa_generic
#define XPHI_MK_TABLE_D generic_table_d
#define XPHI_MK_TABLE_F generic_table_f
#define XPHI_MK_VECTOR_BYTES 16
#define XPHI_MK_FUSED_F64 0
#include "blas/microkernel/kernels_tu.inc"
