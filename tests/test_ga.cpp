#include "ftmc/dse/ga.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "ftmc/dse/executor.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using dse::GaOptions;
using dse::GaResult;
using dse::GeneticOptimizer;

GaOptions tiny_options() {
  GaOptions options;
  options.population = 16;
  options.offspring = 16;
  options.generations = 6;
  options.seed = 123;
  options.threads = 2;
  return options;
}

struct GaRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
  GeneticOptimizer optimizer{arch, apps, backend};
};

TEST(Ga, FindsFeasibleSolutionsOnEasyInstance) {
  GaRig rig;
  const GaResult result = rig.optimizer.run(tiny_options());
  EXPECT_FALSE(result.archive.empty());
  EXPECT_FALSE(result.pareto.empty());
  EXPECT_FALSE(std::isnan(result.best_feasible_power));
  EXPECT_GT(result.evaluations, 0u);
  for (const auto& individual : result.pareto)
    EXPECT_TRUE(individual.evaluation.feasible());
}

TEST(Ga, DeterministicForFixedSeed) {
  GaRig rig;
  const GaResult a = rig.optimizer.run(tiny_options());
  const GaResult b = rig.optimizer.run(tiny_options());
  EXPECT_EQ(a.best_feasible_power, b.best_feasible_power);
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i)
    EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
}

TEST(Ga, HistoryTracksGenerations) {
  GaRig rig;
  auto options = tiny_options();
  std::atomic<std::size_t> callbacks{0};
  options.on_generation = [&](const dse::GenerationStats&) { ++callbacks; };
  const GaResult result = rig.optimizer.run(options);
  EXPECT_EQ(result.history.size(), options.generations + 1);
  EXPECT_EQ(callbacks.load(), options.generations + 1);
  // Best feasible power is monotone non-increasing once found.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& stats : result.history) {
    if (std::isnan(stats.best_feasible_power)) continue;
    EXPECT_LE(stats.best_feasible_power, best + 1e-9);
    best = std::min(best, stats.best_feasible_power);
  }
}

TEST(Ga, ObserverSeesEveryEvaluation) {
  GaRig rig;
  std::atomic<std::size_t> seen{0};
  rig.optimizer.set_observer(
      [&](const core::Candidate&, const core::Evaluation&) { ++seen; });
  const auto options = tiny_options();
  const GaResult result = rig.optimizer.run(options);
  EXPECT_EQ(seen.load(), result.evaluations);
  EXPECT_EQ(result.evaluations,
            options.population + options.generations * options.offspring);
}

TEST(Ga, NoDroppingModeNeverDrops) {
  GaRig rig;
  auto options = tiny_options();
  options.decoder.allow_dropping = false;
  options.evaluator.allow_dropping = false;
  std::atomic<std::size_t> drops{0};
  rig.optimizer.set_observer(
      [&](const core::Candidate& candidate, const core::Evaluation&) {
        for (bool dropped : candidate.drop)
          if (dropped) ++drops;
      });
  (void)rig.optimizer.run(options);
  EXPECT_EQ(drops.load(), 0u);
}

TEST(Ga, SingleObjectiveModeHasScalarObjectives) {
  GaRig rig;
  auto options = tiny_options();
  options.optimize_service = false;
  const GaResult result = rig.optimizer.run(options);
  for (const auto& individual : result.archive)
    EXPECT_EQ(individual.objectives.size(), 1u);
}

TEST(Ga, BiObjectiveParetoIsMutuallyNonDominated) {
  GaRig rig;
  const GaResult result = rig.optimizer.run(tiny_options());
  for (const auto& a : result.pareto)
    for (const auto& b : result.pareto)
      if (&a != &b) {
        EXPECT_FALSE(dse::dominates(a.objectives, b.objectives));
      }
}

TEST(Ga, RejectsEmptyPopulation) {
  GaRig rig;
  auto options = tiny_options();
  options.population = 0;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);
}

TEST(Ga, ArchiveRespectsPopulationBound) {
  GaRig rig;
  const auto options = tiny_options();
  const GaResult result = rig.optimizer.run(options);
  EXPECT_LE(result.archive.size(), options.population);
}

// Reference leg of the memoization differential: an InProcessExecutor over
// an Evaluator with no cache and no store, passed as GaOptions::executor,
// so every offspring is analyzed fresh.  It mirrors the GA's own backend
// (same pool size, same scenario fan-out) minus the memo, and it lives
// here rather than behind a production switch: the GA always has its L1.
struct UncachedExecutor {
  UncachedExecutor(const GaRig& rig, const GaOptions& options)
      : pool(options.threads),
        evaluator(rig.arch, rig.apps, rig.backend,
                  reference_options(options, pool)),
        executor(evaluator, pool) {}

  static core::Evaluator::Options reference_options(const GaOptions& options,
                                                    util::ThreadPool& pool) {
    core::Evaluator::Options evaluator = options.evaluator;
    evaluator.cache = nullptr;
    evaluator.store = nullptr;
    evaluator.scenario_pool = options.parallel_scenarios ? &pool : nullptr;
    return evaluator;
  }

  util::ThreadPool pool;
  core::Evaluator evaluator;
  dse::InProcessExecutor executor;
};

// Memoization must never steer the search: for a fixed seed, the cached
// run and the run through the uncached reference executor must walk the
// exact same trajectory — identical archive objectives, identical
// chromosomes, identical best power.
void expect_same_trajectory(const GaResult& a, const GaResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  if (std::isnan(a.best_feasible_power)) {
    EXPECT_TRUE(std::isnan(b.best_feasible_power));
  } else {
    EXPECT_EQ(a.best_feasible_power, b.best_feasible_power);
  }
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i) {
    EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
    EXPECT_EQ(a.archive[i].chromosome, b.archive[i].chromosome);
    EXPECT_EQ(a.archive[i].candidate, b.archive[i].candidate);
  }
}

// The reference leg never reports a cache hit, so it really ran uncached.
void expect_uncached(const GaResult& result) {
  for (const auto& stats : result.history) EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(Ga, CacheOnOffTrajectoriesIdentical) {
  GaRig rig;
  const auto cached = tiny_options();
  auto uncached = tiny_options();
  UncachedExecutor reference(rig, uncached);
  uncached.executor = &reference.executor;
  const GaResult uncached_result = rig.optimizer.run(uncached);
  expect_uncached(uncached_result);
  expect_same_trajectory(rig.optimizer.run(cached), uncached_result);
}

TEST(Ga, ParallelScenariosOnOffTrajectoriesIdentical) {
  GaRig rig;
  auto parallel = tiny_options();
  parallel.parallel_scenarios = true;
  auto sequential = tiny_options();
  sequential.parallel_scenarios = false;
  expect_same_trajectory(rig.optimizer.run(parallel),
                         rig.optimizer.run(sequential));
}

TEST(Ga, SeedPathEqualsOptimizedPath) {
  // The full optimized configuration (L1, parallel scenarios) against the
  // full seed path (uncached executor, sequential scenarios).
  GaRig rig;
  auto optimized = tiny_options();
  optimized.parallel_scenarios = true;
  auto seed_path = tiny_options();
  seed_path.parallel_scenarios = false;
  UncachedExecutor reference(rig, seed_path);
  seed_path.executor = &reference.executor;
  const GaResult seed_result = rig.optimizer.run(seed_path);
  expect_uncached(seed_result);
  expect_same_trajectory(rig.optimizer.run(optimized), seed_result);
}

TEST(Ga, CacheStatisticsAreReportedAndConsistent) {
  GaRig rig;
  const GaResult result = rig.optimizer.run(tiny_options());

  std::size_t evaluations = 0, hits = 0, misses = 0;
  for (const auto& stats : result.history) {
    evaluations += stats.evaluations;
    hits += stats.cache_hits;
    misses += stats.cache_misses;
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.evaluations);
    EXPECT_GE(stats.cache_hit_rate, 0.0);
    EXPECT_LE(stats.cache_hit_rate, 1.0);
    EXPECT_GE(stats.evaluation_seconds, 0.0);
  }
  EXPECT_EQ(evaluations, result.evaluations);
  EXPECT_EQ(hits + misses, result.evaluations);
  // The tiny instance converges quickly, so repeats must occur.
  EXPECT_GT(hits, 0u);
  // One memo per run: every offspring reaches the candidate cache, which
  // answers every repeat the per-generation stats count.
  EXPECT_EQ(result.cache.hits, hits);
  EXPECT_EQ(result.cache.lookups(), result.evaluations);
}

TEST(Ga, ExternalCacheIsSharedAcrossRuns) {
  GaRig rig;
  core::EvaluationCache shared;
  auto options = tiny_options();
  options.evaluator.cache = &shared;
  const GaResult first = rig.optimizer.run(options);
  const std::size_t entries_after_first = shared.stats().entries;
  EXPECT_GT(entries_after_first, 0u);

  // Identical rerun: every candidate evaluation is answered by the shared
  // cache, and the trajectory is unchanged.
  const core::CacheStats before = shared.stats();
  const GaResult second = rig.optimizer.run(options);
  expect_same_trajectory(first, second);
  const core::CacheStats after = shared.stats();
  EXPECT_EQ(after.misses, before.misses);  // no new analysis ran
  EXPECT_GT(after.hits, before.hits);
}

}  // namespace
