#include "blas/microkernel/registry.h"

#include <cstdlib>
#include <type_traits>

namespace xphi::blas::mk {

namespace {

constexpr Shape kShapes[kShapeCount] = {
#define X(MR, NR, TR) Shape{MR, NR, TR, MR * 100 + NR, #MR "x" #NR},
    XPHI_MK_FOR_EACH_SHAPE(X)
#undef X
};

/// Widest ISA tier the host supports among those the build compiled.
Isa host_max_isa() {
  const CpuFeatures& f = host_cpu_features();
#if defined(XPHI_MK_HAVE_AVX512)
  if (f.avx512f) return Isa::kAvx512;
#endif
#if defined(XPHI_MK_HAVE_AVX2)
  if (f.avx2 && f.fma) return Isa::kAvx2;
#endif
  return Isa::kGeneric;
}

/// Preferred shape id per (type, ISA tier). fp64: the shape whose
/// accumulator block fills the tier's register file (see kernels_decl.h).
/// fp32 prefers 4x8 at every tier: an Nr=8 float row is one 256-bit vector
/// at the avx2 and avx512 tiers (two xmm at generic), so no fp32 shape has
/// more lanes than 4x8, and in bench_fig4's per-shape L1 table
/// (EXPERIMENTS.md) no taller fp32 block beats it beyond the run-to-run
/// spread. Neither preference is a numerics choice: every shape of a tier
/// is bitwise identical (kernels_inl.h).
template <class T>
int preferred_shape_id(Isa isa) {
  if constexpr (std::is_same_v<T, float>) {
    (void)isa;
    return 408;
  } else {
    switch (isa) {
      case Isa::kAvx512:
        return 808;
      case Isa::kAvx2:
        return 608;
      case Isa::kGeneric:
        break;
    }
    return 308;
  }
}

template <class T>
const Kernel<T>* find_shape(int id) {
  for (const Kernel<T>& k : registry<T>())
    if (k.shape.id == id) return &k;
  return nullptr;
}

/// Widest present variant of `kernel` at or below `cap`.
template <class T>
Selection<T> resolve_variant(const Kernel<T>* kernel, Isa cap) {
  Selection<T> s;
  if (kernel == nullptr) return s;
  s.kernel = kernel;
  for (int i = static_cast<int>(cap); i >= 0; --i) {
    if (kernel->variants[i]) {
      s.isa = static_cast<Isa>(i);
      s.fns = kernel->variants[i];
      return s;
    }
  }
  // The generic variant is always instantiated for registered types, so
  // this is unreachable for a non-null kernel; keep the empty fns as a
  // defensive "unavailable" answer.
  return s;
}

struct ParsedSpec {
  int shape_id = 0;          // 0 = auto
  Isa cap = Isa::kGeneric;   // tier cap (valid when capped)
  bool capped = false;
  bool ok = false;
};

ParsedSpec parse_spec(std::string_view spec) {
  ParsedSpec p;
  if (spec.empty()) return p;
  std::string_view shape = spec;
  std::string_view isa;
  if (const auto at = spec.find('@'); at != std::string_view::npos) {
    shape = spec.substr(0, at);
    isa = spec.substr(at + 1);
  }
  if (shape == "auto" || shape.empty()) {
    p.shape_id = 0;
  } else {
    const auto x = shape.find('x');
    if (x == std::string_view::npos || x == 0 || x + 1 == shape.size())
      return p;
    int mr = 0, nr = 0;
    for (const char c : shape.substr(0, x)) {
      if (c < '0' || c > '9') return p;
      mr = mr * 10 + (c - '0');
    }
    for (const char c : shape.substr(x + 1)) {
      if (c < '0' || c > '9') return p;
      nr = nr * 10 + (c - '0');
    }
    p.shape_id = mr * 100 + nr;
  }
  if (!isa.empty()) {
    if (isa == "generic") {
      p.cap = Isa::kGeneric;
    } else if (isa == "avx2") {
      p.cap = Isa::kAvx2;
    } else if (isa == "avx512") {
      p.cap = Isa::kAvx512;
    } else {
      return p;
    }
    p.capped = true;
  }
  p.ok = true;
  return p;
}

/// Resolve a parsed spec against the registry (env-free).
template <class T>
std::optional<Selection<T>> resolve_spec(const ParsedSpec& p) {
  if (!p.ok || registry<T>().empty()) return std::nullopt;
  const Isa cap = p.capped ? p.cap : host_max_isa();
  const int id = p.shape_id != 0 ? p.shape_id : preferred_shape_id<T>(cap);
  const Kernel<T>* k = find_shape<T>(id);
  if (k == nullptr) return std::nullopt;
  Selection<T> s = resolve_variant<T>(k, cap);
  if (!s) return std::nullopt;
  return s;
}

const ParsedSpec& env_spec() {
  static const ParsedSpec p = [] {
    const char* env = std::getenv("XPHI_MICROKERNEL");
    return parse_spec(env != nullptr ? std::string_view(env)
                                     : std::string_view());
  }();
  return p;
}

template <class T>
std::vector<Kernel<T>> build_registry(const IsaTable<T>& generic,
                                      const IsaTable<T>* avx2,
                                      const IsaTable<T>* avx512) {
  std::vector<Kernel<T>> rows(kShapeCount);
  for (std::size_t i = 0; i < kShapeCount; ++i) {
    rows[i].shape = kShapes[i];
    rows[i].variants[static_cast<int>(Isa::kGeneric)] = generic.fns[i];
    if (avx2 != nullptr)
      rows[i].variants[static_cast<int>(Isa::kAvx2)] = avx2->fns[i];
    if (avx512 != nullptr)
      rows[i].variants[static_cast<int>(Isa::kAvx512)] = avx512->fns[i];
  }
  return rows;
}

template <class T>
Selection<T> select_kernel_impl(int id) {
  if (registry<T>().empty()) return {};
  // Env pin beats everything — that is what makes CI runs reproducible
  // regardless of what kernel id a caller asks for.
  const ParsedSpec& env = env_spec();
  if (env.ok) {
    if (auto s = resolve_spec<T>(env)) return *s;
  }
  const Isa cap = host_max_isa();
  const Kernel<T>* k = id != 0 ? find_shape<T>(id) : nullptr;
  if (k == nullptr) k = find_shape<T>(preferred_shape_id<T>(cap));
  return resolve_variant<T>(k, cap);
}

template <class T>
Selection<T> select_for_tile_impl(std::size_t tile_rows,
                                  std::size_t tile_cols, int id) {
  const auto compatible = [&](const Selection<T>& s) {
    return s && s.tile_rows() == tile_rows && s.nr() == tile_cols;
  };
  // Honor an explicit pin (env, then knob) when it fits the pack layout.
  {
    Selection<T> pinned = select_kernel_impl<T>(id);
    if (compatible(pinned)) return pinned;
  }
  // Otherwise: widest variant across the shapes that match the layout,
  // preferring larger register blocks (more C reuse per B load).
  const Isa cap = host_max_isa();
  Selection<T> best;
  for (const Kernel<T>& k : registry<T>()) {
    if (k.shape.tile_rows != tile_rows || k.shape.nr != tile_cols) continue;
    Selection<T> s = resolve_variant<T>(&k, cap);
    if (!s) continue;
    if (!best || static_cast<int>(s.isa) > static_cast<int>(best.isa) ||
        (s.isa == best.isa && s.mr() > best.mr())) {
      best = s;
    }
  }
  return best;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kGeneric:
      break;
  }
  return "generic";
}

std::string_view env_override_spec() {
  static const std::string spec = [] {
    const char* env = std::getenv("XPHI_MICROKERNEL");
    return std::string(env != nullptr ? env : "");
  }();
  return spec;
}

template <>
const std::vector<Kernel<double>>& registry<double>() {
  static const std::vector<Kernel<double>> rows = build_registry<double>(
      generic_table_d(),
#if defined(XPHI_MK_HAVE_AVX2)
      &avx2_table_d(),
#else
      nullptr,
#endif
#if defined(XPHI_MK_HAVE_AVX512)
      &avx512_table_d()
#else
      nullptr
#endif
  );
  return rows;
}

template <>
const std::vector<Kernel<float>>& registry<float>() {
  static const std::vector<Kernel<float>> rows = build_registry<float>(
      generic_table_f(),
#if defined(XPHI_MK_HAVE_AVX2)
      &avx2_table_f(),
#else
      nullptr,
#endif
#if defined(XPHI_MK_HAVE_AVX512)
      &avx512_table_f()
#else
      nullptr
#endif
  );
  return rows;
}

template <>
Selection<double> select_kernel<double>(int id) {
  return select_kernel_impl<double>(id);
}
template <>
Selection<float> select_kernel<float>(int id) {
  return select_kernel_impl<float>(id);
}

template <>
std::optional<Selection<double>> select_kernel_spec<double>(
    std::string_view spec) {
  return resolve_spec<double>(parse_spec(spec));
}
template <>
std::optional<Selection<float>> select_kernel_spec<float>(
    std::string_view spec) {
  return resolve_spec<float>(parse_spec(spec));
}

template <>
Selection<double> select_for_tile<double>(std::size_t tile_rows,
                                          std::size_t tile_cols, int id) {
  return select_for_tile_impl<double>(tile_rows, tile_cols, id);
}
template <>
Selection<float> select_for_tile<float>(std::size_t tile_rows,
                                        std::size_t tile_cols, int id) {
  return select_for_tile_impl<float>(tile_rows, tile_cols, id);
}

}  // namespace xphi::blas::mk
