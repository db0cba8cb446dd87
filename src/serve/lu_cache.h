// Sharded, LRU-bounded factorization cache for the solve server.
//
// Repeat-RHS traffic re-solves the same matrix with fresh right-hand sides;
// the dominant cost (the O(n^3) LU) is identical every time, so workers
// share one process-level cache of finished factorizations. Entries are
// keyed by machine fingerprint (tune::default_fingerprint), shape bucket
// (tune::bucket), plus a content hash of the actual matrix — so a key can
// never alias across machines, across size bands, or across matrices that
// merely share a seed convention. Mixed-precision entries carry an "|fp32" bucket
// suffix, so fp32 and fp64 factors of the same matrix never alias either.
//
// Capacity is counted in COST UNITS, not entries: an fp64 factorization
// costs 2 units, an fp32 (mixed-precision) one costs 1 — half the bytes.
// Each shard's budget is 2x its share of the entry capacity, so an all-fp64
// workload sees exactly the historical entry-count LRU, while a mixed
// workload fits up to twice as many factorizations in the same budget —
// the cache-capacity dividend of fp32 factors.
//
// The cache is sharded: the key hash picks a shard, each shard is an
// independently-locked LRU map, so concurrent workers rarely contend on the
// same mutex. Values are shared_ptr<const Factorization>: a hit hands back
// the exact bits the first solver produced (factorizations are
// deterministic, so hit or miss the response is bitwise identical — which
// is why cache state is allowed to race under concurrency while the
// server's scheduling stays deterministic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpl/mixed.h"
#include "hpl/precision.h"
#include "util/matrix.h"

namespace xphi::serve {

/// Cache key: (machine fingerprint, ShapeBucket::key(), content hash of the
/// matrix bytes).
struct CacheKey {
  std::string machine;
  std::string bucket;
  std::uint64_t content_hash = 0;

  bool operator==(const CacheKey&) const = default;
  /// Flat string form used for hashing and shard selection.
  std::string flat() const {
    return machine + "|" + bucket + "|" + std::to_string(content_hash);
  }
};

/// FNV-1a over the raw bytes of a double buffer — the content-hash half of
/// a CacheKey (bit-exact: two matrices hash equal iff their bits are equal).
std::uint64_t content_hash_doubles(const double* data, std::size_t count);

/// One cached factorization. kFp64 entries fill `lu`/`ipiv`; kMixed entries
/// fill `mixed` (fp32 factors + pivots, half the bytes) and leave `lu`
/// empty.
struct Factorization {
  hpl::Precision precision = hpl::Precision::kFp64;
  util::Matrix<double> lu;
  std::vector<std::size_t> ipiv;
  hpl::MixedFactors mixed;
};

/// Cache cost units of one entry: fp64 = 2, fp32 = 1 (half the bytes).
inline std::size_t factorization_cost(const Factorization& f) {
  return f.precision == hpl::Precision::kMixed ? 1 : 2;
}

class ShardedLuCache {
 public:
  /// `capacity` bounds the total cost units at 2 * capacity — i.e.
  /// `capacity` fp64 entries, or up to 2 * capacity fp32 entries, or any
  /// mix in between. It is split evenly across `shards`
  /// independently-locked LRU maps (each shard gets at least one fp64
  /// slot). shards/capacity are clamped to >= 1.
  ShardedLuCache(std::size_t shards, std::size_t capacity);

  ShardedLuCache(const ShardedLuCache&) = delete;
  ShardedLuCache& operator=(const ShardedLuCache&) = delete;

  /// Looks up `key`, refreshing its LRU position. Null on miss.
  std::shared_ptr<const Factorization> find(const CacheKey& key);

  /// Inserts (or replaces) `key`, evicting least-recently-used entries
  /// until the new entry's cost fits the shard's unit budget.
  void insert(const CacheKey& key, std::shared_ptr<const Factorization> value);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
  };
  /// Aggregated over shards (consistent snapshot per shard).
  Stats stats() const;

  std::size_t size() const;
  /// Occupied cost units summed over shards.
  std::size_t used_units() const;
  std::size_t shards() const noexcept { return shards_.size(); }
  /// Per-shard cost-unit budget (2 x the shard's entry capacity).
  std::size_t shard_unit_budget() const noexcept { return shard_budget_; }
  std::size_t shard_of(const CacheKey& key) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // LRU list, most recent first; map points into the list.
    std::list<std::pair<std::string, std::shared_ptr<const Factorization>>>
        lru;
    std::unordered_map<std::string, decltype(lru)::iterator> index;
    std::size_t used_units = 0;
    Stats stats;
  };

  std::size_t shard_budget_ = 2;  // cost units per shard
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace xphi::serve
