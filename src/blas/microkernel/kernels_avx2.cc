// AVX2+FMA kernel variants (-mavx2 -mfma -ffp-contract=off). The fp64
// kernels accumulate through explicit FMA intrinsics (one rounding per
// k-step, the fused contract); the fp32 kernels keep a*b and +acc as two
// rounded ops, bitwise-identical to the generic tier's fp32 kernels
// (kernels_inl.h). Only compiled when the toolchain accepts the flags;
// entry points are only *called* after __builtin_cpu_supports("avx2")/"fma"
// passes.
#define XPHI_MK_TU_NS isa_avx2
#define XPHI_MK_TABLE_D avx2_table_d
#define XPHI_MK_TABLE_F avx2_table_f
#define XPHI_MK_VECTOR_BYTES 32
#define XPHI_MK_FUSED_F64 1
#include "blas/microkernel/kernels_tu.inc"
