// The design-space-exploration engine (Section 4): a (mu + lambda)
// evolutionary algorithm with SPEA2 environmental selection, Lamarckian
// candidate repair, and multithreaded candidate evaluation — an in-repo
// stand-in for the paper's Opt4J + SPEA-II setup (population, parents, and
// offspring all 100; 5,000 generations in the paper's experiments).
//
// Objectives (all minimized internally):
//   [0] expected power (+ infeasibility penalty),
//   [1] negated quality of service (only when optimize_service is set).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/chromosome.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/dse/spea2.hpp"
#include "ftmc/dse/variation.hpp"

namespace ftmc::dse {

struct Checkpoint;  // checkpoint.hpp
class Executor;     // executor.hpp

/// One evaluated design point.
struct Individual {
  Chromosome chromosome;
  core::Candidate candidate;
  core::Evaluation evaluation;
  ObjectiveVector objectives;
};

struct GenerationStats {
  std::size_t generation = 0;
  std::size_t feasible_in_archive = 0;
  /// Best (lowest) feasible power seen so far; NaN until one exists.
  double best_feasible_power = 0.0;
  /// Candidates evaluated for this generation (initial population for
  /// generation 0, the offspring batch otherwise).
  std::size_t evaluations = 0;
  /// Of those, how many the executor answered from a cache (the shared
  /// EvaluationCache, or a worker's cache and store) / analyzed fresh.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// cache_hits / evaluations for this generation's batch.
  double cache_hit_rate = 0.0;
  /// Algorithm-1 transition scenarios actually analyzed for this
  /// generation (cache hits skip their scenarios entirely).
  std::size_t scenarios_analyzed = 0;
  /// Backend fixed-point solves Algorithm 1 calls for on those scenarios
  /// (normal + Naive + unique scenarios per evaluated candidate, including
  /// those the saturation probe skips; cache hits contribute none).
  std::size_t scenario_solves = 0;
  /// Analysis throughput of this generation's evaluation batch.
  double scenarios_per_second = 0.0;
  /// Wall-clock seconds spent evaluating this generation's batch.
  double evaluation_seconds = 0.0;
  /// Per-candidate evaluation latency percentiles across the batch, in
  /// microseconds (0 when the batch was empty).  Telemetry only: timing
  /// never feeds back into the search, so runs stay bit-identical.
  double eval_p50_us = 0.0;
  double eval_p95_us = 0.0;
  double eval_max_us = 0.0;
};

struct GaOptions {
  std::size_t population = 100;  ///< archive size (= mu)
  std::size_t offspring = 100;   ///< lambda
  std::size_t generations = 100;
  std::uint64_t seed = 42;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// Bi-objective power/service exploration (Figure 5) vs. power only.
  bool optimize_service = true;
  /// Fan Algorithm 1's transition scenarios out over the same worker pool
  /// that evaluates candidates (nesting-safe; drains generation tails when
  /// there are fewer pending candidates than threads).
  ///
  /// Precedence (enforced by validate()): a caller-provided
  /// `evaluator.scenario_pool` is used as-is; with none, the GA fans out
  /// over its own pool.  parallel_scenarios=false plus a caller pool is a
  /// contradiction and validate() rejects it.
  bool parallel_scenarios = true;
  VariationOptions variation;
  Decoder::Options decoder;
  /// Evaluations are memoized in one EvaluationCache shared by all GA
  /// workers: a caller-provided `evaluator.cache` is used as-is, otherwise
  /// the GA builds a run-local one of the default capacity.  Every
  /// offspring is decoded and handed to the executor, so the cache answers
  /// every repeated candidate.  The cached value is exactly what evaluation
  /// would have produced, so the trajectory matches an uncached executor's
  /// (the trajectory tests in test_ga.cpp hold the two together).  Read
  /// only when `executor` is null: a caller's executor brings its own.
  core::Evaluator::Options evaluator;
  /// Called after each generation's selection (from the driving thread).
  /// On resume it is also replayed for every restored generation, so a
  /// telemetry stream (e.g. the CLI's JSONL) covers the whole run.
  std::function<void(const GenerationStats&)> on_generation;

  // --- Checkpointing (see checkpoint.hpp for format and guarantees) -------
  /// When non-empty, write an `ftmc.ckpt.v1` snapshot here at every
  /// checkpoint_every-th generation boundary, on graceful stop, and at the
  /// end of the run.
  std::string checkpoint_path;
  /// Snapshot cadence in generations (>= 1).
  std::size_t checkpoint_every = 1;
  /// Keep-last-K rotation of the snapshot file (1 = overwrite in place).
  std::size_t checkpoint_keep = 3;
  /// Resume from this snapshot instead of a fresh start.  The snapshot's
  /// recorded options must match this struct's trajectory options field by
  /// field (CheckpointError names the first mismatch).  Must outlive run().
  const Checkpoint* resume = nullptr;
  /// Polled at each generation boundary (driving thread).  Returning true
  /// finishes the in-flight generation, writes a final checkpoint when
  /// checkpoint_path is set, and returns with GaResult::interrupted.
  std::function<bool()> stop_requested;

  /// Evaluation backend for every decoded offspring (see executor.hpp).
  /// nullptr runs a run-local InProcessExecutor over the GA's own
  /// evaluator and pool — bit-for-bit the pre-executor behavior.  The
  /// executor choice never alters the trajectory (evaluations are pure
  /// functions of the genotype), so it is deliberately NOT part of
  /// TrajectoryOptions: snapshots resume under any backend.  Must outlive
  /// run().
  Executor* executor = nullptr;
  /// Also return the boundary snapshot in GaResult::snapshot when the run
  /// ends (finished or stopped), independent of checkpoint_path.  The
  /// island-model campaign uses this to chunk a run into migration epochs
  /// without a disk round-trip per epoch.
  bool capture_final_snapshot = false;

  /// Validates field ranges and resolves the overlapping pool knobs with
  /// the precedence documented above.  Throws std::invalid_argument naming
  /// the offending field(s).  run() calls this first.
  void validate() const;
};

struct GaResult {
  /// Final SPEA2 archive.
  std::vector<Individual> archive;
  /// Feasible, non-dominated members of the archive.
  std::vector<Individual> pareto;
  std::size_t evaluations = 0;
  /// Best feasible power (NaN if no feasible candidate was ever seen).
  double best_feasible_power = 0.0;
  /// True when the run stopped early via GaOptions::stop_requested; the
  /// archive/pareto reflect the last completed generation and, when
  /// checkpointing was on, a resumable snapshot is on disk.
  bool interrupted = false;
  /// Index of the last completed generation boundary.
  std::size_t last_generation = 0;
  std::vector<GenerationStats> history;
  /// Final counters of the evaluator's EvaluationCache (the caller's or
  /// the run-local one).  With a caller's executor the GA builds no
  /// evaluator; then `hits` and `misses` count the executor's answers
  /// (EvalOutcome::cache_hit) over the batches this run evaluated, and the
  /// other fields stay zero.
  core::CacheStats cache;
  /// The run-ending boundary snapshot, when capture_final_snapshot was
  /// set (null otherwise, and on the resume-of-finished-run fast path).
  /// Resuming from it continues the trajectory exactly as a disk
  /// checkpoint would.
  std::shared_ptr<Checkpoint> snapshot;
};

class GeneticOptimizer {
 public:
  /// Observes every evaluated candidate (called from the thread driving
  /// run(), in batch order, under an internal mutex).  Used by the
  /// Section-5.2 experiment to classify candidates by dropping-enabled vs.
  /// dropping-disabled feasibility.
  using EvalObserver = std::function<void(const core::Candidate&,
                                          const core::Evaluation&)>;

  /// References must outlive the optimizer.
  GeneticOptimizer(const model::Architecture& arch,
                   const model::ApplicationSet& apps,
                   const sched::SchedulingAnalysis& backend);

  void set_observer(EvalObserver observer) { observer_ = std::move(observer); }

  GaResult run(const GaOptions& options) const;

 private:
  const model::Architecture* arch_;
  const model::ApplicationSet* apps_;
  const sched::SchedulingAnalysis* backend_;
  EvalObserver observer_;
};

}  // namespace ftmc::dse
