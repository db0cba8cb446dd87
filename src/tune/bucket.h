// Shape bucketing: a geometric key for problem shapes.
//
// Each extent rounds up to the next power of two, so shapes within the same
// 2x band share one key while a tiny ragged panel can never alias a
// full-size update. The solve server's LU-cache key carries it (with the
// machine fingerprint and a content hash), and bench_tune labels each
// BENCH_tune.json row with it.
#pragma once

#include <cstddef>
#include <string>

namespace xphi::tune {

/// Smallest power of two >= d (0 stays 0: a degenerate extent is its own
/// bucket). Saturates at the top bit rather than overflowing.
constexpr std::size_t bucket_extent(std::size_t d) noexcept {
  if (d <= 1) return d;
  constexpr std::size_t kTop = std::size_t{1}
                               << (8 * sizeof(std::size_t) - 1);
  if (d > kTop) return kTop;
  std::size_t b = 1;
  while (b < d) b <<= 1;
  return b;
}

struct ShapeBucket {
  std::size_t m = 0, n = 0, k = 0;

  bool operator==(const ShapeBucket&) const = default;

  /// Stable string form used as the DB key: "m<..>_n<..>_k<..>".
  std::string key() const {
    // Appended piecewise: GCC 12 flags the `"m" + std::to_string(...)`
    // chain with a false -Wrestrict, which -DXPHI_WERROR=ON turns fatal.
    std::string s = "m";
    s += std::to_string(m);
    s += "_n";
    s += std::to_string(n);
    s += "_k";
    s += std::to_string(k);
    return s;
  }
};

/// Bucket for a C(m x n) += A(m x k) * B(k x n)-shaped problem (LU-style
/// consumers pass n for both m and n and the panel width as k).
constexpr ShapeBucket bucket(std::size_t m, std::size_t n,
                             std::size_t k) noexcept {
  return ShapeBucket{bucket_extent(m), bucket_extent(n), bucket_extent(k)};
}

}  // namespace xphi::tune
