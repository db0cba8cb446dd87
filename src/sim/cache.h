// Functional set-associative cache and TLB models.
//
// Paper Section III-A3 motivates the Knights Corner-friendly packing with:
// "Multiplying matrices stored in row or column-major format may result in
// performance degradation, due to TLB pressure and cache associativity
// conflicts, especially when these matrices have large leading dimensions."
//
// These models let the repository demonstrate that claim from first
// principles rather than assert it: feed the address stream of a kernel
// walking an unpacked column (stride = leading dimension) and of the same
// kernel walking a packed tile (unit stride), and count the conflict misses
// and TLB misses (see bench_ablation_packing). The LU/GEMM performance
// models use the *conclusions* (packed-tile costs); these classes are the
// evidence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xphi::sim {

/// Set-associative cache with LRU replacement. Addresses are byte addresses.
class SetAssociativeCache {
 public:
  /// total_bytes must be ways * sets * line_bytes with power-of-two sets.
  SetAssociativeCache(std::size_t total_bytes, std::size_t ways,
                      std::size_t line_bytes);

  std::size_t sets() const noexcept { return sets_; }
  std::size_t ways() const noexcept { return ways_; }
  std::size_t line_bytes() const noexcept { return line_bytes_; }

  /// Accesses one byte address; returns true on hit. Misses fill the line.
  bool access(std::uint64_t address);

  std::size_t hits() const noexcept { return hits_; }
  std::size_t misses() const noexcept { return misses_; }
  double miss_rate() const noexcept {
    const std::size_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / total : 0.0;
  }

  /// Knights Corner L1D: 32 KB, 8-way, 64 B lines.
  static SetAssociativeCache knc_l1();
  /// Knights Corner L2: 512 KB, 8-way, 64 B lines.
  static SetAssociativeCache knc_l2();

 private:
  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;  // last-use stamp
    bool valid = false;
  };

  std::size_t ways_;
  std::size_t sets_;
  std::size_t line_bytes_;
  std::uint64_t clock_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::vector<Line> lines_;  // sets_ * ways_, set-major
};

/// Fully-associative TLB with LRU replacement.
class Tlb {
 public:
  Tlb(std::size_t entries, std::size_t page_bytes);

  bool access(std::uint64_t address);
  std::size_t misses() const noexcept { return misses_; }
  std::size_t hits() const noexcept { return hits_; }
  double miss_rate() const noexcept {
    const std::size_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / total : 0.0;
  }

  /// Knights Corner data TLB: 64 entries of 4 KB pages.
  static Tlb knc_dtlb();

 private:
  struct Entry {
    std::uint64_t page = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  std::size_t page_bytes_;
  std::uint64_t clock_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::vector<Entry> entries_;
};

/// Statistics from walking a GEMM operand access pattern through a cache +
/// TLB pair.
struct WalkStats {
  std::size_t accesses = 0;
  double cache_miss_rate = 0;
  double tlb_miss_rate = 0;
};

/// Walks the A-operand pattern of the basic kernel: for each of `k` steps,
/// read `rows` consecutive elements of a column. Unpacked: the column
/// stride is `ld` elements (row-major matrix, so a column walk jumps ld*8
/// bytes per element). Packed: the tile is contiguous (stride 1 within the
/// 30-row column, columns adjacent).
WalkStats walk_column_access(std::size_t rows, std::size_t k, std::size_t ld,
                             SetAssociativeCache cache, Tlb tlb,
                             std::uint64_t base = 0);

}  // namespace xphi::sim
