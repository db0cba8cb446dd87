// AVX-512F kernel variants (-mavx512f -mavx2 -mfma -ffp-contract=off). The
// fp64 kernels accumulate through explicit FMA intrinsics — the fused
// contract of the FMA tiers, bitwise-identical to the avx2 fp64 kernels —
// and the fp32 kernels stay unfused (kernels_inl.h). Only compiled when the
// toolchain accepts the flags; entry points are only *called* after
// __builtin_cpu_supports("avx512f") passes.
#define XPHI_MK_TU_NS isa_avx512
#define XPHI_MK_TABLE_D avx512_table_d
#define XPHI_MK_TABLE_F avx512_table_f
#define XPHI_MK_VECTOR_BYTES 64
#define XPHI_MK_FUSED_F64 1
#include "blas/microkernel/kernels_tu.inc"
