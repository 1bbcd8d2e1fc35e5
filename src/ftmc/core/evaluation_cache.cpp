#include "ftmc/core/evaluation_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ftmc/obs/metrics.hpp"

namespace ftmc::core {

namespace {

/// Registry mirror of CacheStats: the per-shard counters stay the source
/// of truth for GaResult::cache (an exact per-instance tally), while the
/// process-wide registry aggregates across every cache instance for
/// --metrics-json / dashboards.
struct CacheCounters {
  obs::Counter hits{"cache.eval.hits"};
  obs::Counter misses{"cache.eval.misses"};
  obs::Counter insertions{"cache.eval.insertions"};
  obs::Counter evictions{"cache.eval.evictions"};
};

CacheCounters& cache_counters() {
  static CacheCounters counters;
  return counters;
}

}  // namespace

EvaluationCache::EvaluationCache(std::size_t capacity, std::size_t shards) {
  if (capacity == 0)
    throw std::invalid_argument("EvaluationCache: zero capacity");
  if (shards == 0) throw std::invalid_argument("EvaluationCache: zero shards");
  const std::size_t shard_count = std::bit_ceil(shards);
  shard_capacity_ = std::max(capacity / shard_count, std::size_t{1});
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

void EvaluationCache::evict_one(Shard& shard) {
  // Bounded shard: drop an arbitrary resident entry.  The DSE working set
  // is dominated by the recent archive, and a wrong eviction only costs
  // one recomputation.
  shard.table.erase(shard.table.begin());
  ++shard.evictions;
  cache_counters().evictions.add(1);
}

std::optional<Evaluation> EvaluationCache::find(std::uint64_t key,
                                                const Candidate& candidate) {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.table.find(key);
  if (it == shard.table.end() || !(it->second.candidate == candidate)) {
    // Absent, or a 64-bit collision between distinct candidates: both are
    // misses — the caller recomputes, correctness is never at stake.
    ++shard.misses;
    cache_counters().misses.add(1);
    return std::nullopt;
  }
  ++shard.hits;
  cache_counters().hits.add(1);
  return it->second.evaluation;
}

void EvaluationCache::insert(std::uint64_t key, const Candidate& candidate,
                             const Evaluation& evaluation) {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.table.find(key);
  if (it != shard.table.end()) {
    it->second = Entry{candidate, evaluation};
    return;
  }
  if (shard.table.size() >= shard_capacity_) evict_one(shard);
  shard.table.emplace(key, Entry{candidate, evaluation});
  ++shard.insertions;
  cache_counters().insertions.add(1);
}

CacheStats EvaluationCache::stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    // One lock hold per shard covers its counters AND its table, so each
    // shard contributes an internally consistent snapshot (no torn reads
    // between, say, `insertions` and `entries` while a writer is mid-insert
    // on that shard).
    std::lock_guard lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->table.size();
  }
  return stats;
}

}  // namespace ftmc::core
