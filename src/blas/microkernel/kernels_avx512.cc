// AVX-512F kernel variants (-mavx512f …, -ffp-contract=off — same bitwise
// contract as the other TUs). Only compiled when the toolchain accepts the
// flags; entry points are only *called* after
// __builtin_cpu_supports("avx512f") passes.
#define XPHI_MK_TU_NS isa_avx512
#define XPHI_MK_TABLE_D avx512_table_d
#define XPHI_MK_TABLE_F avx512_table_f
#define XPHI_MK_VECTOR_BYTES 64
#include "blas/microkernel/kernels_tu.inc"
