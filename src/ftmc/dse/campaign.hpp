// Multi-seed DSE campaigns: the production driver around GeneticOptimizer.
//
// A campaign runs one GA per seed (an island), retries transient evaluator
// failures with bounded exponential backoff, enforces wall-clock and
// evaluation budgets, and merges the per-seed feasible fronts into one
// non-dominated set.  One loop drives every configuration: islands run in
// epochs, and after each epoch they meet at a barrier.
//
// Without migration (`migration_every == 0`, plain shards) there is a
// single epoch over the whole generation budget and the islands run one
// after another in seed order (each already saturates the machine through
// the evaluator's thread pool).  With `migration_every > 0` the islands run
// `migration_every` generations per epoch and, at each barrier, exchange
// their best feasible non-dominated candidates along a ring before resuming
// from in-memory snapshots.  Migrating islands may run their epochs
// concurrently (`parallel_islands`), and each island's evaluations can be
// delegated to a remote worker through `executor_factory` (see
// executor.hpp; the factory is re-invoked on retry so a lost worker is
// replaced by a fresh one).
//
// Determinism: every island is an ordinary GA run, so a fixed seed list
// yields a bitwise-identical merged front; a retried island reloads its
// latest checkpoint (or its in-memory epoch snapshot, or restarts from
// scratch when neither exists), which by the resume guarantee of
// checkpoint.hpp reproduces the exact trajectory the failed attempt was on,
// and its telemetry resumes after the last generation already delivered.
// Migration happens at fixed generation barriers on sorted candidate lists,
// so a fixed (seeds, migration_every, migration_size) triple pins the merged
// front regardless of which executor evaluated each batch or whether any
// worker died and was respawned mid-epoch.  Configuration errors
// (std::invalid_argument) and checkpoint defects (CheckpointError) are
// never retried — they fail the campaign immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ftmc/dse/ga.hpp"

namespace ftmc::dse {

class Executor;

struct CampaignOptions {
  /// Per-island GA configuration; `ga.seed` is overridden by each entry of
  /// `seeds` and `ga.checkpoint_path`/`ga.resume` by the campaign's own
  /// checkpoint management below.
  GaOptions ga;
  /// One island per seed.  Empty = single island with ga.seed.
  std::vector<std::uint64_t> seeds;

  /// Migration cadence in generations.  0 = plain shards: one epoch over
  /// the whole generation budget, islands run one after another in seed
  /// order, and none starts once a stop or a budget has fired.  With a
  /// cadence, epochs of `migration_every` generations are separated by
  /// ring-migration barriers.
  std::size_t migration_every = 0;
  /// Candidates each island donates to its ring successor per barrier
  /// (its best feasible non-dominated individuals, deduplicated against
  /// the recipient's archive by objective vector).
  std::size_t migration_size = 4;
  /// Run the epochs of migrating islands concurrently, one thread per
  /// island (ignored without migration).  Off by default: in-process
  /// islands already saturate the machine through the evaluator pool, so
  /// threads only help when executors evaluate elsewhere (remote workers).
  bool parallel_islands = false;
  /// Evaluation executor per island (nullptr = in-process).  Called once
  /// per GA attempt, so a retry after a worker loss constructs a fresh
  /// executor — typically a respawned worker.
  std::function<std::unique_ptr<Executor>(std::size_t)> executor_factory;

  /// Retries per island and epoch on evaluator failure (any
  /// std::exception except configuration and checkpoint errors).
  std::size_t max_retries = 2;
  /// First retry delay; doubles per retry, capped at max_backoff_seconds.
  double retry_backoff_seconds = 0.1;
  double max_backoff_seconds = 5.0;

  /// Wall-clock budget over the whole campaign (0 = unlimited).  Checked at
  /// generation boundaries: the in-flight generation always completes and,
  /// with checkpointing on, a resumable snapshot is written.
  double max_seconds = 0.0;
  /// Evaluation budget over the whole campaign (0 = unlimited), same
  /// boundary semantics.
  std::size_t max_evaluations = 0;

  /// Base snapshot path (empty = no checkpointing).  A single-seed campaign
  /// uses it verbatim; shard i of a multi-seed campaign uses `<path>.s<i>`.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  std::size_t checkpoint_keep = 3;
  /// Load existing shard snapshots and continue them; missing files start
  /// fresh, defective or mismatched ones fail loudly (CheckpointError).
  bool resume = false;

  /// Cooperative interrupt, polled at generation boundaries and before an
  /// island starts (compose with budgets).
  std::function<bool()> stop_requested;
  /// Telemetry fan-in: island index + that island's per-generation stats,
  /// each generation delivered once (replayed from generation 0 when an
  /// island resumes from an earlier campaign's snapshot; never repeated
  /// after an in-process retry).
  std::function<void(std::size_t, const GenerationStats&)> on_generation;
};

/// Per-shard checkpoint path under the campaign's base path.
std::string shard_checkpoint_path(const std::string& base, std::size_t shard,
                                  std::size_t shard_count);

struct ShardResult {
  std::uint64_t seed = 0;
  GaResult result;
  std::size_t retries = 0;  ///< evaluator failures recovered from
  bool resumed = false;     ///< started from an existing snapshot
};

struct CampaignResult {
  std::vector<ShardResult> shards;
  /// Non-dominated union of the shards' feasible fronts, one representative
  /// per objective vector (first shard in seed order wins ties).
  std::vector<Individual> front;
  std::size_t evaluations = 0;
  /// True when stop_requested fired; shards not yet started are absent
  /// from `shards` and the interrupted shard carries interrupted=true.
  bool interrupted = false;
  /// True when a wall-clock or evaluation budget ended the campaign early.
  bool budget_exhausted = false;
  /// Migration telemetry (both zero without migration).
  std::size_t migration_epochs = 0;
  std::size_t migrants = 0;
};

/// Merges per-shard fronts into one non-dominated, deduplicated front.
std::vector<Individual> merge_fronts(const std::vector<ShardResult>& shards);

class Campaign {
 public:
  /// References must outlive the campaign.
  Campaign(const model::Architecture& arch, const model::ApplicationSet& apps,
           const sched::SchedulingAnalysis& backend);

  CampaignResult run(const CampaignOptions& options) const;

 private:
  const model::Architecture* arch_;
  const model::ApplicationSet* apps_;
  const sched::SchedulingAnalysis* backend_;
};

}  // namespace ftmc::dse
