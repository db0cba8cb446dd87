// AVX2+FMA kernel variants (-mavx2 -mfma -ffp-contract=off). Contraction is
// off so a*b+acc never fuses: the FMA unit still executes the mul and add as
// separate rounded ops, keeping this TU bitwise-identical to the generic
// one. Only compiled when the toolchain accepts the flags; entry points are
// only *called* after __builtin_cpu_supports("avx2")/"fma" passes.
#define XPHI_MK_TU_NS isa_avx2
#define XPHI_MK_TABLE_D avx2_table_d
#define XPHI_MK_TABLE_F avx2_table_f
#define XPHI_MK_VECTOR_BYTES 32
#include "blas/microkernel/kernels_tu.inc"
