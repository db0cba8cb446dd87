#include "tune/search_space.h"

#include <algorithm>
#include <limits>

#include "blas/block_model.h"
#include "blas/microkernel/registry.h"

namespace xphi::tune {

SearchSpace& SearchSpace::add(std::string name, std::vector<long long> values,
                              long long default_value) {
  KnobRange r;
  r.name = std::move(name);
  r.values = std::move(values);
  if (r.values.empty()) r.values.push_back(default_value);
  const auto it =
      std::find(r.values.begin(), r.values.end(), default_value);
  r.default_index =
      it != r.values.end()
          ? static_cast<std::size_t>(it - r.values.begin())
          : 0;
  dims_.push_back(std::move(r));
  return *this;
}

std::vector<std::size_t> SearchSpace::default_point() const {
  std::vector<std::size_t> p(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) p[d] = dims_[d].default_index;
  return p;
}

std::vector<long long> SearchSpace::values_at(
    const std::vector<std::size_t>& point) const {
  std::vector<long long> v(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const std::size_t i =
        d < point.size() ? std::min(point[d], dims_[d].values.size() - 1)
                         : dims_[d].default_index;
    v[d] = dims_[d].values[i];
  }
  return v;
}

std::size_t SearchSpace::nearest_index(std::size_t d, long long value) const {
  const auto& vals = dims_[d].values;
  std::size_t best = 0;
  unsigned long long best_dist = std::numeric_limits<unsigned long long>::max();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const unsigned long long dist =
        vals[i] > value ? static_cast<unsigned long long>(vals[i] - value)
                        : static_cast<unsigned long long>(value - vals[i]);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

namespace spaces {

SearchSpace functional_offload() {
  SearchSpace s;
  const std::vector<long long> tiles{16, 24, 32, 48, 64, 96, 128};
  s.add("mt", tiles, 64);
  s.add("nt", tiles, 64);
  s.add("pack_cache_entries", {8, 16, 32, 64, 128}, 64);
  return s;
}

SearchSpace superstage(int total_cores) {
  SearchSpace s;
  const long long cap = std::max(1, total_cores / 2);
  std::vector<long long> groups;
  for (long long g = 2; g < cap; g *= 2) groups.push_back(g);
  groups.push_back(cap);  // the paper's default cap: half the device
  s.add("superstage_max_group", groups, cap);
  s.add("superstage_period", {1, 2, 4, 8}, 1);
  return s;
}

SearchSpace panel() {
  SearchSpace s;
  s.add("panel_nb_min", {4, 8, 16, 32, 64}, 8);
  s.add("laswp_col_chunk", {64, 128, 256, 512, 1024}, 256);
  return s;
}

SearchSpace microkernel() {
  SearchSpace s;
  // Registry shape ids (mr*100 + nr), 0 = auto-dispatch. The candidate
  // list mirrors blas/microkernel/kernels_decl.h.
  s.add("microkernel", {0, 308, 408, 608, 806, 412, 808}, 0);
  s.add("chunk_k", {120, 180, 240, 300, 340, 400, 480, 600}, 300);
  // mc in row multiples the tile heights share; 0 = unbounded (PR 5
  // behavior). The high end covers what a multi-MiB L2 derives to.
  s.add("gemm_mc", {0, 96, 192, 288, 384, 480, 640, 960}, 0);
  s.add("gemm_nc", {0, 192, 384, 512, 680, 1024, 2048, 4096}, 0);
  return s;
}

SearchSpace net() {
  SearchSpace s;
  // Crossover in doubles: 8 KiB payloads (1024 doubles) is where a segmented
  // ring's pipelining starts to amortize its extra hop latency on the
  // simulated fabric; the sweep brackets it by ~4x in both directions.
  s.add("net_crossover_doubles", {64, 256, 1024, 4096, 16384, 65536}, 1024);
  s.add("net_ring_segment", {128, 512, 1024, 4096}, 1024);
  return s;
}

std::vector<std::size_t> microkernel_seed(const SearchSpace& space) {
  const auto sel = blas::mk::select_kernel<double>(0);
  const auto& cpu = blas::mk::host_cpu_features();
  const blas::BlockSizes model = blas::analytic_block_sizes(
      cpu, sel ? sel.mr() : 3, sel ? sel.nr() : 8, sizeof(double));
  std::vector<std::size_t> point = space.default_point();
  for (std::size_t d = 0; d < space.dims(); ++d) {
    const std::string& name = space.dim(d).name;
    if (name == "microkernel" && sel) {
      point[d] = space.nearest_index(d, sel.id());
    } else if (name == "chunk_k") {
      point[d] = space.nearest_index(d, static_cast<long long>(model.kc));
    } else if (name == "gemm_mc") {
      point[d] = space.nearest_index(d, static_cast<long long>(model.mc));
    } else if (name == "gemm_nc") {
      point[d] = space.nearest_index(d, static_cast<long long>(model.nc));
    }
  }
  return point;
}

}  // namespace spaces

}  // namespace xphi::tune
