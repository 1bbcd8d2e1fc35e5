// Reproduces Section 5.2, "Effect of Task Dropping":
//
//  (a) optimized expected power with dropping enabled vs. forbidden
//      (paper: +14.66% / +16.16% / +18.52% more power without dropping for
//      DT-med / DT-large / Cruise);
//  (b) the "rescue ratio": the share of DSE candidates that are infeasible
//      without task dropping but feasible with it (paper: 0.02% Synth-1,
//      0.685% Synth-2, 29.00% DT-med, 22.49% DT-large, 99.98% Cruise);
//  (c) the share of applied hardening techniques that are re-executions in
//      the final optimized designs (paper: 87.03% / 98.66% / 83.23% for
//      DT-med / DT-large / Cruise vs. 44.29% for Synth-1).
//
// The paper runs 5,000 generations with population 100; the bench defaults
// to a smaller budget and prints the setting used.
// Environment knobs: FTMC_GENERATIONS (default 60), FTMC_POPULATION (40),
// FTMC_SEED (2014).
#include <atomic>
#include <cmath>
#include <iostream>
#include <mutex>

#include "bench_common.hpp"
#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/table.hpp"
#include "ftmc/util/thread_pool.hpp"

using namespace ftmc;

namespace {

struct BenchmarkOutcome {
  std::string name;
  double power_with_dropping = 0.0;
  double power_without_dropping = 0.0;
  double rescue_ratio = 0.0;       // share of candidates rescued by dropping
  double reexecution_share = 0.0;  // of applied hardenings, over every
                                   // explored candidate
  std::size_t evaluations = 0;
};

dse::GaOptions base_options(std::uint64_t seed) {
  dse::GaOptions options;
  options.population = bench::env_or("FTMC_POPULATION", 40);
  options.offspring = options.population;
  options.generations = bench::env_or("FTMC_GENERATIONS", 60);
  options.seed = seed;
  options.optimize_service = false;  // pure power optimization (5.2a)
  return options;
}

BenchmarkOutcome run_benchmark(const benchmarks::Benchmark& bench,
                               std::uint64_t seed) {
  const sched::HolisticAnalysis backend;
  BenchmarkOutcome outcome;
  outcome.name = bench.name;

  // --- DSE with dropping, tracking every candidate for the rescue ratio --
  std::vector<core::Candidate> evaluated;
  std::vector<bool> feasible_with;
  std::mutex collect_mutex;
  std::size_t applied = 0, reexec = 0;
  {
    dse::GeneticOptimizer optimizer(bench.arch, bench.apps, backend);
    optimizer.set_observer([&](const core::Candidate& candidate,
                               const core::Evaluation& evaluation) {
      std::lock_guard lock(collect_mutex);
      evaluated.push_back(candidate);
      feasible_with.push_back(evaluation.feasible());
      // Hardening-technique census over every explored candidate.
      for (const auto& decision : candidate.plan) {
        if (decision.technique == hardening::Technique::kNone) continue;
        ++applied;
        if (decision.technique == hardening::Technique::kReexecution)
          ++reexec;
      }
    });
    const auto result = optimizer.run(base_options(seed));
    outcome.power_with_dropping = result.best_feasible_power;
    outcome.evaluations = result.evaluations;
    outcome.reexecution_share =
        applied == 0 ? 0.0
                     : 100.0 * static_cast<double>(reexec) /
                           static_cast<double>(applied);
  }

  // --- Rescue ratio: re-evaluate every candidate with dropping disabled ---
  {
    core::Evaluator::Options no_drop;
    no_drop.allow_dropping = false;
    const core::Evaluator evaluator(bench.arch, bench.apps, backend, no_drop);
    std::atomic<std::size_t> rescued{0};
    util::ThreadPool pool;
    pool.parallel_for(evaluated.size(), [&](std::size_t index) {
      if (!feasible_with[index]) return;
      if (!evaluator.evaluate(evaluated[index]).feasible()) ++rescued;
    });
    outcome.rescue_ratio = evaluated.empty()
                               ? 0.0
                               : 100.0 * static_cast<double>(rescued) /
                                     static_cast<double>(evaluated.size());
  }

  // --- DSE without dropping ------------------------------------------------
  {
    dse::GeneticOptimizer optimizer(bench.arch, bench.apps, backend);
    auto options = base_options(seed);
    options.decoder.allow_dropping = false;
    options.evaluator.allow_dropping = false;
    const auto result = optimizer.run(options);
    outcome.power_without_dropping = result.best_feasible_power;
  }
  return outcome;
}

std::string pct(double value) { return util::Table::cell(value, 2) + "%"; }

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const std::uint64_t seed = bench::env_or("FTMC_SEED", 2014);
  std::cout << "Section 5.2 reproduction (population "
            << bench::env_or("FTMC_POPULATION", 40) << ", "
            << bench::env_or("FTMC_GENERATIONS", 60)
            << " generations; paper: 100 x 5000)\n\n";

  std::vector<BenchmarkOutcome> outcomes;
  for (const auto& bench :
       {benchmarks::synth_benchmark(1), benchmarks::synth_benchmark(2),
        benchmarks::dt_med_benchmark(), benchmarks::dt_large_benchmark(),
        benchmarks::cruise_benchmark()}) {
    std::cout << "running " << bench.name << "...\n";
    outcomes.push_back(run_benchmark(bench, seed));
  }

  util::Table table("\nEffect of task dropping");
  table.set_header({"Benchmark", "power w/ drop [mW]", "power w/o drop [mW]",
                    "extra power w/o drop", "rescue ratio",
                    "re-exec share", "evals"});
  for (const auto& outcome : outcomes) {
    const bool both = outcome.power_with_dropping > 0 &&
                      outcome.power_without_dropping > 0 &&
                      std::isfinite(outcome.power_with_dropping) &&
                      std::isfinite(outcome.power_without_dropping);
    const double extra =
        both ? 100.0 * (outcome.power_without_dropping -
                        outcome.power_with_dropping) /
                   outcome.power_with_dropping
             : 0.0;
    table.add_row({outcome.name,
                   std::isnan(outcome.power_with_dropping)
                       ? "infeasible"
                       : util::Table::cell(outcome.power_with_dropping, 1),
                   std::isnan(outcome.power_without_dropping)
                       ? "infeasible"
                       : util::Table::cell(outcome.power_without_dropping, 1),
                   both ? pct(extra) : "-", pct(outcome.rescue_ratio),
                   pct(outcome.reexecution_share),
                   util::Table::cell(outcome.evaluations)});
  }
  table.print(std::cout);
  std::cout << "\nPaper reference: extra power w/o dropping 14.66% (DT-med), "
               "16.16% (DT-large), 18.52% (Cruise);\nrescue ratios 0.02% "
               "(Synth-1), 0.685% (Synth-2), 29.00% (DT-med), 22.49% "
               "(DT-large), 99.98% (Cruise);\nre-execution shares 87.03% "
               "(DT-med), 98.66% (DT-large), 83.23% (Cruise), 44.29% "
               "(Synth-1).\n";

  obs::Json benchmarks_json = obs::Json::array();
  for (const auto& outcome : outcomes)
    benchmarks_json.push(
        obs::Json::object()
            .set("name", outcome.name)
            .set("power_with_dropping",
                 obs::Json::number(outcome.power_with_dropping, 1))
            .set("power_without_dropping",
                 obs::Json::number(outcome.power_without_dropping, 1))
            .set("rescue_ratio_pct",
                 obs::Json::number(outcome.rescue_ratio, 2))
            .set("reexecution_share_pct",
                 obs::Json::number(outcome.reexecution_share, 2))
            .set("evaluations", outcome.evaluations));
  obs::Json summary = obs::Json::object();
  summary.set("bench", "dropping")
      .set("population", bench::env_or("FTMC_POPULATION", 40))
      .set("generations", bench::env_or("FTMC_GENERATIONS", 60))
      .set("seed", seed)
      .set("benchmarks", std::move(benchmarks_json));
  reporter.finish(summary);
  return 0;
}
