// Content-addressed memoization of Evaluator::evaluate results.
//
// The DSE hot path reruns Algorithm 1 — one normal-state pass plus one
// holistic analysis per transition scenario — for every offspring of every
// generation, even when crossover/mutation/repair regenerate a candidate
// the GA has already seen (increasingly common once the archive converges).
// This cache keys the full Evaluation by a stable 64-bit content hash of
// the decoded Candidate (allocation, drop set, hardening plan, base
// mapping) mixed with a fingerprint of the evaluator's options, and stores
// the candidate itself so lookups verify exact equality — a hash collision
// degrades to a miss, never to a wrong result.
//
// Concurrency: the table is sharded by hash, one striped mutex per shard,
// so concurrent GA workers mostly touch disjoint shards.  Eviction is a
// cheap per-shard bounded policy (drop an arbitrary resident entry when the
// shard is full); hit/miss/insert/evict counters are aggregated on demand.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ftmc/core/evaluator.hpp"

namespace ftmc::core {

/// Aggregated cache counters.  Every per-shard contribution (counters and
/// entry count) is read under that shard's stripe mutex in one critical
/// section, so the snapshot is internally consistent: the invariant
/// entries == insertions - evictions holds in every snapshot even while the
/// pool is hammering the cache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  std::uint64_t lookups() const noexcept { return hits + misses; }
  double hit_rate() const noexcept {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class EvaluationCache {
 public:
  /// `capacity` bounds the total resident entries; it is split evenly
  /// across `shards`, which is rounded up to a power of two.
  explicit EvaluationCache(std::size_t capacity = 1 << 16,
                           std::size_t shards = 16);

  EvaluationCache(const EvaluationCache&) = delete;
  EvaluationCache& operator=(const EvaluationCache&) = delete;

  /// Looks up `key` (as produced by Evaluator::candidate_key) and verifies
  /// the stored candidate matches exactly.  Counts a hit or a miss.
  std::optional<Evaluation> find(std::uint64_t key,
                                 const Candidate& candidate);

  /// Inserts (or overwrites) the evaluation for `key`, evicting an
  /// arbitrary resident entry when the shard is at capacity.
  void insert(std::uint64_t key, const Candidate& candidate,
              const Evaluation& evaluation);

  /// Consistent aggregate over all shards.
  CacheStats stats() const;

 private:
  struct Entry {
    Candidate candidate;
    Evaluation evaluation;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, Entry> table;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  void evict_one(Shard& shard);

  Shard& shard_of(std::uint64_t key) noexcept {
    // digest() avalanches, so the top bits are as good as any; the bottom
    // bits index the shard table buckets.
    return *shards_[(key >> 48) & (shards_.size() - 1)];
  }

  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ftmc::core
