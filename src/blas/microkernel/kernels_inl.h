// Micro-kernel generator templates — the one source of truth for the
// M_r x N_r register-block loop nests that every ISA variant compiles.
//
// This header is deliberately include-guard-free and include-free: each
// kernel translation unit (kernels_generic.cc, kernels_avx2.cc,
// kernels_avx512.cc) #includes it *inside its own namespace* after pulling
// <cstddef> and <type_traits> in at global scope. The per-TU namespace is
// what keeps one ISA's instantiations out of another's: if the templates
// lived in a shared namespace, the inline (COMDAT) instantiations from the
// -mavx2 TU and the baseline TU would have identical mangled names and the
// linker would keep an arbitrary one — an AVX2-coded copy could then be
// reached on an SSE2-only host through what looks like the generic entry
// point. Distinct namespaces give distinct symbols, so each table entry
// points at code compiled with exactly its advertised flags.
//
// The including namespace must also declare
//   inline constexpr std::size_t kVectorBytes = <16 | 32 | 64>;
//   inline constexpr bool kFusedDouble = <true | false>;
// the vector width of its tier and whether its fp64 kernels accumulate
// through fused multiply-adds. A namespace that sets kFusedDouble also
// provides fused_madd(acc, a, b) for every fp64 row-vector width (16, 32
// and, at the avx512 tier, 64 bytes): acc + (*a) * b with one rounding, the
// A element broadcast by the ISA's own broadcast intrinsic. Register blocks
// are explicit GCC vector-extension values of at most kVectorBytes rather
// than scalar arrays left to the auto-vectorizer, which split the rows into
// mixed-width vectors and spilled accumulators to the stack. The width is
// per tier on purpose: one 64-byte type compiled for SSE2/AVX2 is split by
// the compiler and spills as well.
//
// Determinism contract (DESIGN.md §12): for every shape and ISA, each C
// element accumulates its k-products in ascending k order into a single
// accumulator, then stores alpha*acc + beta*c once (two roundings). The
// shape only groups *rows*, and a vector lane only groups *columns*;
// neither reassociates a C element's reduction. The k-step itself is the
// one per-tier choice: fused (acc = fma(a, b, acc), one rounding) for fp64
// at the FMA tiers, unfused (a*b rounded, then added) for fp64 at the
// generic tier and for fp32 at every tier. Every TU compiles with
// -ffp-contract=off, so FMA only ever comes from the explicit fused_madd
// intrinsics. A kernel is therefore bitwise-identical to gemm_ref under its
// own contract (Fns::accumulate), and all kernels of one contract agree.

/// Whether T's kernels in this namespace take the fused k-step.
template <class T>
inline constexpr bool kFusedStep = kFusedDouble && std::is_same_v<T, double>;

/// Byte width of one C-row vector for an Nr-element row of T: the tier
/// width kVectorBytes, halved until it divides the row (8x6 fp64 rows use
/// 16-byte vectors, 4x12 fp64 rows 32-byte ones at the AVX-512 tier).
template <class T, std::size_t Nr>
constexpr std::size_t row_vector_bytes() {
  std::size_t w = kVectorBytes;
  while (w > sizeof(T) && (Nr * sizeof(T)) % w != 0) w /= 2;
  return w;
}

template <class T, std::size_t Bytes>
struct RowVector {
  using type [[gnu::vector_size(Bytes)]] = T;
};

/// Unaligned vector load/store: packed tiles and C rows carry no alignment
/// promise beyond sizeof(T). One call per vector keeps each load in a
/// register — copying a whole row array at once routes it through the stack.
template <class V, class T>
inline V load_vector(const T* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <class V, class T>
inline void store_vector(T* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// Full-tile fast path: C is exactly TileRows x Nr, processed as Mr-row
/// register sub-blocks of Mr x (Nr / lanes) vector accumulators.
/// a_tile: TileRows x k column-major; b_tile: k x Nr row-major.
template <class T, std::size_t Mr, std::size_t Nr, std::size_t TileRows>
void ukr_full(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
              T beta, T* c, std::size_t ldc) {
  static_assert(TileRows % Mr == 0, "Mr must divide the packed tile height");
  constexpr std::size_t kBytes = row_vector_bytes<T, Nr>();
  constexpr std::size_t kLanes = kBytes / sizeof(T);
  constexpr std::size_t kNv = Nr / kLanes;
  using V = typename RowVector<T, kBytes>::type;
  for (std::size_t r0 = 0; r0 < TileRows; r0 += Mr) {
    V acc[Mr][kNv] = {};
    const T* a_rows = a_tile + r0;
    for (std::size_t j = 0; j < k; ++j) {
      const T* a_col = a_rows + j * TileRows;  // contiguous column of a
      const T* b_row = b_tile + j * Nr;        // contiguous row of b
      V bv[kNv];
      for (std::size_t v = 0; v < kNv; ++v)
        bv[v] = load_vector<V>(b_row + v * kLanes);
      // The k-step: one fused rounding, or the product rounded and then
      // added.
      for (std::size_t r = 0; r < Mr; ++r) {
        const T av = a_col[r];
        for (std::size_t v = 0; v < kNv; ++v) {
          if constexpr (kFusedStep<T>) {
            acc[r][v] = fused_madd(acc[r][v], a_col + r, bv[v]);
          } else {
            const V prod = av * bv[v];
            acc[r][v] += prod;
          }
        }
      }
    }
    T* crow = c + r0 * ldc;
    for (std::size_t r = 0; r < Mr; ++r) {
      for (std::size_t v = 0; v < kNv; ++v) {
        T* cp = crow + r * ldc + v * kLanes;
        store_vector(cp, alpha * acc[r][v] + beta * load_vector<V>(cp));
      }
    }
  }
}

/// Masked path for edge tiles: stages the live rows x cols corner of C in a
/// zeroed TileRows x Nr tile, runs ukr_full on it and copies the corner
/// back — the paper's "edge waste" is compute, never a wrong store. Every
/// live element sees exactly ukr_full's arithmetic.
template <class T, std::size_t Mr, std::size_t Nr, std::size_t TileRows>
void ukr_masked(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
                T beta, T* c, std::size_t ldc, std::size_t rows,
                std::size_t cols) {
  T tile[TileRows * Nr] = {};
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c2 = 0; c2 < cols; ++c2)
      tile[r * Nr + c2] = c[r * ldc + c2];
  ukr_full<T, Mr, Nr, TileRows>(a_tile, b_tile, k, alpha, beta, tile, Nr);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c2 = 0; c2 < cols; ++c2)
      c[r * ldc + c2] = tile[r * Nr + c2];
}
