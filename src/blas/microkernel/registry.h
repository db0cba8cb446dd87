// Runtime-dispatched micro-kernel registry (DESIGN.md §12).
//
// The registry is a fixed table of (shape x ISA) kernel entry points built
// from the X-macro family in kernels_decl.h. Dispatch policy:
//
//   1. An explicit spec always wins: either the XPHI_MICROKERNEL environment
//      variable (reproducible CI: pin "3x8@generic" and every host computes
//      with the same code) or a caller-supplied spec/knob id (the
//      `microkernel` knob of GemmOptions / PanelOptions / tune::Knobs,
//      mr*100 + nr).
//   2. Otherwise auto-dispatch: the widest ISA tier host_cpu_features()
//      reports AND the build compiled, at that tier's preferred shape
//      (generic->3x8, avx2->6x8, avx512->8x8).
//
// A shape forced onto a host whose build lacks that ISA variant silently
// degrades to the widest variant *of that shape* that is present — the
// shape is honored exactly. The avx2 and avx512 variants of a shape are
// bitwise-identical; falling back to the generic tier also switches fp64
// from the fused to the unfused contract, which Selection::accumulate()
// reports (kernels_inl.h).
//
// Spec grammar: "MRxNR[@isa]" or "auto[@isa]", isa in {generic, avx2,
// avx512}. "auto@generic" caps the tier without pinning a shape.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blas/microkernel/cpu_features.h"
#include "blas/microkernel/kernels_decl.h"

namespace xphi::blas::mk {

enum class Isa : int { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr std::size_t kIsaCount = 3;

const char* isa_name(Isa isa);  // "generic" / "avx2" / "avx512"

struct Shape {
  std::size_t mr = 0;
  std::size_t nr = 0;
  std::size_t tile_rows = 0;
  int id = 0;  // mr * 100 + nr — the `microkernel` knob encoding
  const char* name = "";
};

/// One registry row: a shape plus its per-ISA entry points (null where the
/// build lacks the TU or the type is not instantiated).
template <class T>
struct Kernel {
  Shape shape;
  Fns<T> variants[kIsaCount];
};

/// All registered kernels for T, in kernels_decl.h order. The primary
/// template is the unsupported-type fallback (empty list: callers keep
/// their generic template path); double and float specialize to the real
/// tables in registry.cc.
template <class T>
const std::vector<Kernel<T>>& registry() {
  static const std::vector<Kernel<T>> kEmpty;
  return kEmpty;
}
template <>
const std::vector<Kernel<double>>& registry<double>();
template <>
const std::vector<Kernel<float>>& registry<float>();

/// A resolved dispatch decision.
template <class T>
struct Selection {
  const Kernel<T>* kernel = nullptr;
  Isa isa = Isa::kGeneric;
  Fns<T> fns;

  explicit operator bool() const noexcept {
    return kernel != nullptr && fns.full != nullptr;
  }
  std::size_t mr() const noexcept { return kernel->shape.mr; }
  std::size_t nr() const noexcept { return kernel->shape.nr; }
  std::size_t tile_rows() const noexcept { return kernel->shape.tile_rows; }
  int id() const noexcept { return kernel->shape.id; }
  /// The bitwise contract of the code that runs: the reference to compare
  /// it with is gemm_ref under this contract.
  Accumulate accumulate() const noexcept { return fns.accumulate; }
  /// "6x8@avx2" — the attribution string bench artifacts record.
  std::string name() const {
    return kernel == nullptr
               ? std::string("none")
               : std::string(kernel->shape.name) + "@" + isa_name(isa);
  }
};

/// Dispatch. id = 0 is auto (honors XPHI_MICROKERNEL); id = mr*100+nr pins
/// the shape (the env override still wins, by design — CI pins beat DB
/// entries). Unknown ids fall back to auto. Returns an empty Selection only
/// when registry<T>() is empty (the primary template below).
template <class T>
Selection<T> select_kernel(int id = 0) {
  (void)id;
  return {};
}
template <>
Selection<double> select_kernel<double>(int id);
template <>
Selection<float> select_kernel<float>(int id);

/// Parse + resolve a spec string; nullopt when the spec does not parse or
/// names an unknown shape. Ignores the environment (this *is* the forcing
/// path).
template <class T>
std::optional<Selection<T>> select_kernel_spec(std::string_view spec) {
  (void)spec;
  return std::nullopt;
}
template <>
std::optional<Selection<double>> select_kernel_spec<double>(
    std::string_view spec);
template <>
std::optional<Selection<float>> select_kernel_spec<float>(
    std::string_view spec);

/// Best kernel compatible with operands already packed at the given tile
/// geometry (outer_product_packed's case: the pack layout is fixed by the
/// caller, but the widest ISA variant of a matching shape can still be
/// picked). Prefers the pinned/env selection when compatible. Empty when no
/// registered shape matches.
template <class T>
Selection<T> select_for_tile(std::size_t tile_rows, std::size_t tile_cols,
                             int id = 0) {
  (void)tile_rows;
  (void)tile_cols;
  (void)id;
  return {};
}
template <>
Selection<double> select_for_tile<double>(std::size_t tile_rows,
                                          std::size_t tile_cols, int id);
template <>
Selection<float> select_for_tile<float>(std::size_t tile_rows,
                                        std::size_t tile_cols, int id);

/// The env override spec ("" when unset) — exposed so benches can report
/// whether results were pinned.
std::string_view env_override_spec();

}  // namespace xphi::blas::mk
