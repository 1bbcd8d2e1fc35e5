#include "ftmc/dse/ga.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "ftmc/dse/checkpoint.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/util/stats.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace ftmc::dse {

void GaOptions::validate() const {
  if (population == 0)
    throw std::invalid_argument("GaOptions: population must be >= 1");
  if (offspring == 0)
    throw std::invalid_argument("GaOptions: offspring must be >= 1");
  if (!parallel_scenarios && evaluator.scenario_pool != nullptr)
    throw std::invalid_argument(
        "GaOptions: parallel_scenarios=false contradicts the caller-provided "
        "evaluator.scenario_pool — clear one of them (a provided pool is "
        "always used)");
  if (!checkpoint_path.empty() && checkpoint_every == 0)
    throw std::invalid_argument(
        "GaOptions: checkpoint_every must be >= 1 when checkpoint_path is "
        "set");
  if (!checkpoint_path.empty() && checkpoint_keep == 0)
    throw std::invalid_argument(
        "GaOptions: checkpoint_keep must be >= 1 when checkpoint_path is "
        "set");
}

GeneticOptimizer::GeneticOptimizer(const model::Architecture& arch,
                                   const model::ApplicationSet& apps,
                                   const sched::SchedulingAnalysis& backend)
    : arch_(&arch), apps_(&apps), backend_(&backend) {}

namespace {

struct GaCounters {
  obs::Counter generations{"dse.generations"};
  obs::Counter evaluations{"dse.evaluations"};
  obs::Counter resume_generations{"dse.resume.generations_restored"};
  obs::Histogram eval_us{"dse.eval_us"};
};

GaCounters& ga_counters() {
  static GaCounters counters;
  return counters;
}

ObjectiveVector objectives_of(const core::Evaluation& evaluation,
                              bool optimize_service) {
  if (!optimize_service) return {evaluation.power};
  return {evaluation.power, -evaluation.service};
}

/// Binary tournament on SPEA2 fitness (lower wins).
std::size_t tournament(const std::vector<double>& fitness, util::Rng& rng) {
  const std::size_t a = rng.index(fitness.size());
  const std::size_t b = rng.index(fitness.size());
  return fitness[a] <= fitness[b] ? a : b;
}

}  // namespace

GaResult GeneticOptimizer::run(const GaOptions& options) const {
  options.validate();

  const Decoder decoder(*arch_, *apps_, options.decoder);
  const ChromosomeShape shape = decoder.shape();

  util::Rng master(options.seed);
  util::ThreadPool pool(options.threads);
  std::mutex observer_mutex;

  // Evaluation backend: the caller's executor, or a run-local in-process
  // one.  Only the latter needs an evaluator: run-local memoization +
  // scenario parallelism, where all workers share one cache (the run's
  // only memo: it answers every repeated candidate) and, when enabled, fan
  // each candidate's Algorithm-1 scenarios out over the same
  // (nesting-safe) pool.  Caller-provided cache/pool in options.evaluator
  // take precedence.
  std::optional<core::EvaluationCache> cache;
  std::optional<core::Evaluator> evaluator;
  std::optional<InProcessExecutor> local_executor;
  Executor* executor = options.executor;
  if (executor == nullptr) {
    core::Evaluator::Options evaluator_options = options.evaluator;
    if (evaluator_options.cache == nullptr) {
      cache.emplace();
      evaluator_options.cache = &*cache;
    }
    if (options.parallel_scenarios &&
        evaluator_options.scenario_pool == nullptr)
      evaluator_options.scenario_pool = &pool;
    evaluator.emplace(*arch_, *apps_, *backend_, evaluator_options);
    local_executor.emplace(*evaluator, pool);
    executor = &*local_executor;
  }
  // A caller's executor answers from caches the GA cannot see (a worker's
  // L1 and store); its outcomes say which answers were hits.
  core::CacheStats executor_answers;

  GaResult result;
  result.best_feasible_power = std::numeric_limits<double>::quiet_NaN();

  // Per-batch counters, copied into the following generation's stats.
  struct BatchStats {
    std::size_t evaluations = 0;
    std::size_t cache_hits = 0;
    std::size_t scenarios_analyzed = 0;
    std::size_t scenario_solves = 0;
    double seconds = 0.0;
    /// Per-candidate wall-clock latencies, ascending (for percentiles).
    std::vector<double> eval_us;
  } last_batch;

  // Evaluates a batch of chromosomes; repair mutates the chromosomes in
  // place (Lamarckian), so the batch is taken by reference.  Three phases:
  // (1) parallel decode + repair, (2) one executor call covering the whole
  // batch (so a remote backend sees the whole generation as one batch, and
  // the L1 — or a worker's L1 and store — answers repeated candidates),
  // (3) sequential fold of the outcomes into individuals, the observer and
  // telemetry.  The phases compute exactly what the pre-executor fused loop
  // did, in a batch-friendly order.
  auto evaluate_batch = [&](std::vector<Chromosome>& batch) {
    obs::Span batch_span("ga.evaluate_batch");
    std::vector<Individual> individuals(batch.size());
    std::vector<double> latencies(batch.size(), 0.0);
    std::vector<Chromosome> genotypes(batch.size());
    std::vector<EvalRequest> requests(batch.size());
    const auto start = std::chrono::steady_clock::now();

    pool.parallel_for(batch.size(), [&](std::size_t index) {
      obs::Span candidate_span("ga.candidate");
      const auto candidate_start = std::chrono::steady_clock::now();
      Individual& individual = individuals[index];
      // Decode randomness (random repair) is seeded from the chromosome's
      // content, not the population slot: identical genotypes then repair
      // to identical candidates no matter where or when they recur.  That
      // determinism is what makes the candidate cache sound — and keeps the
      // run reproducible for a fixed seed.
      const std::uint64_t key = chromosome_hash(batch[index], options.seed);
      genotypes[index] = batch[index];  // pre-repair wire form
      util::Rng rng(key);
      individual.candidate = decoder.decode(batch[index], rng);
      individual.chromosome = batch[index];
      requests[index] = EvalRequest{&genotypes[index], &individual.candidate,
                                    key};
      latencies[index] = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() -
                             candidate_start)
                             .count();
    });

    std::vector<EvalOutcome> outcomes;
    executor->evaluate(requests, outcomes);

    std::size_t hits = 0;
    std::size_t scenarios = 0;
    std::size_t solves = 0;
    for (std::size_t index = 0; index < batch.size(); ++index) {
      Individual& individual = individuals[index];
      individual.evaluation = outcomes[index].evaluation;
      latencies[index] += outcomes[index].latency_us;
      if (outcomes[index].cache_hit) {
        ++hits;
      } else {
        scenarios += individual.evaluation.scenario_count;
        solves += individual.evaluation.scenario_solves;
      }
      individual.objectives =
          objectives_of(individual.evaluation, options.optimize_service);
      if (observer_) {
        std::lock_guard lock(observer_mutex);
        observer_(individual.candidate, individual.evaluation);
      }
      ga_counters().eval_us.record(
          latencies[index] <= 0.0
              ? 0
              : static_cast<std::uint64_t>(latencies[index]));
    }
    ga_counters().evaluations.add(batch.size());
    executor_answers.hits += hits;
    executor_answers.misses += batch.size() - hits;
    std::sort(latencies.begin(), latencies.end());
    last_batch.eval_us = std::move(latencies);
    last_batch.evaluations = batch.size();
    last_batch.cache_hits = hits;
    last_batch.scenarios_analyzed = scenarios;
    last_batch.scenario_solves = solves;
    last_batch.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.evaluations += batch.size();
    return individuals;
  };

  std::vector<Individual> population;
  std::vector<Individual> archive;

  // Binary tournament mating + variation over the current archive; all
  // randomness comes from the master stream, so the checkpoint boundary
  // (right before this runs) pins the offspring exactly.
  auto breed = [&]() {
    std::vector<ObjectiveVector> archive_points;
    archive_points.reserve(archive.size());
    for (const Individual& individual : archive)
      archive_points.push_back(individual.objectives);
    const std::vector<double> fitness = spea2_fitness(archive_points);

    std::vector<Chromosome> offspring;
    offspring.reserve(options.offspring);
    for (std::size_t i = 0; i < options.offspring; ++i) {
      const Chromosome& parent_a =
          archive[tournament(fitness, master)].chromosome;
      const Chromosome& parent_b =
          archive[tournament(fitness, master)].chromosome;
      Chromosome child = master.chance(options.variation.crossover_rate)
                             ? crossover(parent_a, parent_b, shape, master)
                             : parent_a;
      mutate(child, shape, options.variation, master);
      offspring.push_back(std::move(child));
    }
    return offspring;
  };

  auto make_snapshot = [&](std::size_t generation, bool finished) {
    Checkpoint snapshot;
    snapshot.options = TrajectoryOptions::of(options);
    snapshot.generation = generation;
    snapshot.finished = finished ? 1 : 0;
    snapshot.evaluations = result.evaluations;
    snapshot.best_feasible_power = result.best_feasible_power;
    snapshot.master = master.state();
    snapshot.archive = archive;
    snapshot.history = result.history;
    return snapshot;
  };

  auto write_snapshot = [&](std::size_t generation, bool finished) {
    if (options.checkpoint_path.empty()) return;
    save_checkpoint(options.checkpoint_path,
                    make_snapshot(generation, finished),
                    options.checkpoint_keep);
  };

  // Extracts the feasible Pareto front (one representative per objective
  // vector) and moves the archive into the result.
  auto finalize = [&]() {
    std::vector<std::size_t> feasible;
    std::vector<ObjectiveVector> feasible_points;
    for (std::size_t i = 0; i < archive.size(); ++i) {
      if (!archive[i].evaluation.feasible()) continue;
      feasible.push_back(i);
      feasible_points.push_back(archive[i].objectives);
    }
    std::vector<ObjectiveVector> seen;
    for (std::size_t index : pareto_front(feasible_points)) {
      const Individual& individual = archive[feasible[index]];
      if (std::find(seen.begin(), seen.end(), individual.objectives) !=
          seen.end())
        continue;
      seen.push_back(individual.objectives);
      result.pareto.push_back(individual);
    }
    result.archive = std::move(archive);
    if (!evaluator.has_value())
      result.cache = executor_answers;
    else if (evaluator->options().cache != nullptr)
      result.cache = evaluator->options().cache->stats();
  };

  std::size_t start_generation = 0;
  if (options.resume != nullptr) {
    // The snapshot pins the trajectory; any divergent option fails loudly
    // before a single chromosome is touched.
    verify_resume_options(TrajectoryOptions::of(options),
                          options.resume->options);
    master.restore(options.resume->master);
    archive = options.resume->archive;
    result.history = options.resume->history;
    result.evaluations = options.resume->evaluations;
    result.best_feasible_power = options.resume->best_feasible_power;
    result.last_generation = options.resume->generation;
    ga_counters().resume_generations.add(result.history.size());
    // Replay the restored telemetry so downstream streams (CLI JSONL) see
    // the whole run, not just the post-resume suffix.
    if (options.on_generation)
      for (const GenerationStats& stats : result.history)
        options.on_generation(stats);
    if (options.resume->finished != 0 ||
        options.resume->generation >= options.generations) {
      finalize();
      return result;
    }
    // The snapshot was taken after the boundary's selection and before its
    // mating step: run the tail of that generation, then continue.
    std::vector<Chromosome> offspring = breed();
    population = evaluate_batch(offspring);
    start_generation = options.resume->generation + 1;
  } else {
    // --- Initial population -----------------------------------------------
    std::vector<Chromosome> seeds;
    seeds.reserve(options.population);
    for (std::size_t i = 0; i < options.population; ++i)
      seeds.push_back(random_chromosome(shape, master));
    population = evaluate_batch(seeds);
  }

  for (std::size_t generation = start_generation;
       generation <= options.generations; ++generation) {
    obs::Span generation_span("ga.generation");
    ga_counters().generations.add(1);
    // --- Environmental selection over archive + population ----------------
    std::vector<Individual> combined;
    combined.reserve(archive.size() + population.size());
    for (auto& individual : archive) combined.push_back(std::move(individual));
    for (auto& individual : population)
      combined.push_back(std::move(individual));
    archive.clear();
    population.clear();

    std::vector<ObjectiveVector> points;
    points.reserve(combined.size());
    for (const Individual& individual : combined)
      points.push_back(individual.objectives);
    const std::vector<std::size_t> keep =
        spea2_select(points, options.population);
    archive.reserve(keep.size());
    for (std::size_t index : keep)
      archive.push_back(std::move(combined[index]));

    // --- Statistics --------------------------------------------------------
    GenerationStats stats;
    stats.generation = generation;
    for (const Individual& individual : archive) {
      if (!individual.evaluation.feasible()) continue;
      ++stats.feasible_in_archive;
      if (std::isnan(result.best_feasible_power) ||
          individual.evaluation.power < result.best_feasible_power)
        result.best_feasible_power = individual.evaluation.power;
    }
    stats.best_feasible_power = result.best_feasible_power;
    stats.evaluations = last_batch.evaluations;
    stats.cache_hits = last_batch.cache_hits;
    stats.cache_misses = last_batch.evaluations - last_batch.cache_hits;
    stats.cache_hit_rate =
        last_batch.evaluations == 0
            ? 0.0
            : static_cast<double>(last_batch.cache_hits) /
                  static_cast<double>(last_batch.evaluations);
    stats.scenarios_analyzed = last_batch.scenarios_analyzed;
    stats.scenario_solves = last_batch.scenario_solves;
    stats.evaluation_seconds = last_batch.seconds;
    stats.scenarios_per_second =
        last_batch.seconds > 0.0
            ? static_cast<double>(last_batch.scenarios_analyzed) /
                  last_batch.seconds
            : 0.0;
    if (!last_batch.eval_us.empty()) {
      stats.eval_p50_us = util::percentile_sorted(last_batch.eval_us, 0.50);
      stats.eval_p95_us = util::percentile_sorted(last_batch.eval_us, 0.95);
      stats.eval_max_us = last_batch.eval_us.back();
    }
    result.history.push_back(stats);
    result.last_generation = generation;
    if (options.on_generation) options.on_generation(stats);

    // --- Checkpoint + graceful stop, both at the generation boundary -------
    const bool finished = generation == options.generations;
    const bool stop =
        !finished && options.stop_requested && options.stop_requested();
    const bool cadence = !options.checkpoint_path.empty() &&
                         generation % options.checkpoint_every == 0;
    if (finished || stop || cadence) write_snapshot(generation, finished);
    if (options.capture_final_snapshot && (finished || stop))
      result.snapshot =
          std::make_shared<Checkpoint>(make_snapshot(generation, finished));
    if (stop) {
      result.interrupted = true;
      break;
    }
    if (finished) break;

    // --- Mating selection + variation --------------------------------------
    std::vector<Chromosome> offspring = breed();
    population = evaluate_batch(offspring);
  }

  finalize();
  return result;
}

}  // namespace ftmc::dse
