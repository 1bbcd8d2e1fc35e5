// Bitwise-equality lockdown of the scenario-parallel Algorithm 1 path
// (ISSUE 1): analyze() with a thread pool must return results identical to
// the sequential path in every field — WCRT vector, normal-state windows,
// schedulability flags, scenario count — across thread counts, modes, and
// the release-cutoff edge case (droppable applications whose later
// instances never release).
#include <gtest/gtest.h>

#include <vector>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::McAnalysis;

void expect_identical(const core::McAnalysisResult& sequential,
                      const core::McAnalysisResult& parallel) {
  EXPECT_EQ(sequential.wcrt, parallel.wcrt);
  EXPECT_EQ(sequential.normal_schedulable, parallel.normal_schedulable);
  EXPECT_EQ(sequential.critical_schedulable, parallel.critical_schedulable);
  EXPECT_EQ(sequential.scenario_count, parallel.scenario_count);
  EXPECT_EQ(sequential.normal.schedulable, parallel.normal.schedulable);
  ASSERT_EQ(sequential.normal.windows.size(), parallel.normal.windows.size());
  for (std::size_t i = 0; i < sequential.normal.windows.size(); ++i) {
    const sched::TaskWindow& a = sequential.normal.windows[i];
    const sched::TaskWindow& b = parallel.normal.windows[i];
    EXPECT_EQ(a.min_start, b.min_start);
    EXPECT_EQ(a.min_finish, b.min_finish);
    EXPECT_EQ(a.max_start, b.max_start);
    EXPECT_EQ(a.max_finish, b.max_finish);
    EXPECT_EQ(a.schedulable, b.schedulable);
  }
}

/// Repaired random candidates over a synth benchmark, analyzed with and
/// without a pool of every requested size, in both analysis modes.
void run_differential(const benchmarks::Benchmark& benchmark,
                      std::size_t candidate_count, std::uint64_t seed) {
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(seed);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);

  for (std::size_t c = 0; c < candidate_count; ++c) {
    dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
    const core::Candidate candidate = decoder.decode(chromosome, rng);
    const auto system = hardening::apply_hardening(
        benchmark.apps, candidate.plan, candidate.base_mapping,
        benchmark.arch.processor_count());

    for (const McAnalysis::Mode mode :
         {McAnalysis::Mode::kProposed, McAnalysis::Mode::kNaive}) {
      const auto sequential =
          analysis.analyze(benchmark.arch, system, candidate.drop, mode);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(benchmark.name + " candidate " + std::to_string(c) +
                     ", " + std::to_string(threads) + " threads");
        util::ThreadPool pool(threads);
        const auto parallel = analysis.analyze(
            benchmark.arch, system, candidate.drop, mode, &pool);
        expect_identical(sequential, parallel);
      }
    }
  }
}

TEST(ParallelAnalysisDifferential, Synth1BitwiseEqualAcrossThreadCounts) {
  run_differential(benchmarks::synth_benchmark(1), 12, 101);
}

TEST(ParallelAnalysisDifferential, Synth2BitwiseEqualAcrossThreadCounts) {
  run_differential(benchmarks::synth_benchmark(2), 8, 202);
}

// The release-cutoff edge case: a dropped application inside the transition
// window gets bounds [0, wcet] with a cutoff at the trigger's max finish;
// the parallel path must reproduce that scenario exactly.
TEST(ParallelAnalysisDifferential, ReleaseCutoffScenarioMatches) {
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("fast", 2, 40, 50, 250, true, 1.0));
  graphs.push_back(
      fixtures::chain_graph("slow", 3, 80, 100, 1000, false, 1e-6));
  const model::ApplicationSet apps{std::move(graphs)};
  const auto arch = fixtures::test_arch(2);

  hardening::HardeningPlan plan(apps.task_count());
  // Harden the critical chain so triggers (and thus scenarios) exist.
  for (std::size_t i = 2; i < apps.task_count(); ++i) {
    plan[i].technique = hardening::Technique::kReexecution;
    plan[i].reexecutions = 1;
  }
  std::vector<model::ProcessorId> mapping(apps.task_count());
  for (std::size_t i = 0; i < mapping.size(); ++i)
    mapping[i] = model::ProcessorId{static_cast<std::uint32_t>(i % 2)};
  const auto system = hardening::apply_hardening(apps, plan, mapping, 2);

  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const core::DropSet drop{true, false};  // droppable graph is dropped

  for (const McAnalysis::Mode mode :
       {McAnalysis::Mode::kProposed, McAnalysis::Mode::kNaive}) {
    const auto sequential = analysis.analyze(arch, system, drop, mode);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      util::ThreadPool pool(threads);
      expect_identical(sequential,
                       analysis.analyze(arch, system, drop, mode, &pool));
    }
  }
}

// A nested use mirroring the GA: candidate-level parallel_for whose workers
// fan scenarios out on the same pool.  This must neither deadlock (the pool
// is nesting-safe: waiting callers help drain the queue) nor change any
// result.
TEST(ParallelAnalysis, NestedPoolUseIsDeadlockFreeAndIdentical) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(303);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);

  std::vector<core::Candidate> candidates;
  std::vector<hardening::HardenedSystem> systems;
  for (int i = 0; i < 6; ++i) {
    dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
    candidates.push_back(decoder.decode(chromosome, rng));
    systems.push_back(hardening::apply_hardening(
        benchmark.apps, candidates.back().plan,
        candidates.back().base_mapping, benchmark.arch.processor_count()));
  }

  std::vector<core::McAnalysisResult> sequential(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    sequential[i] =
        analysis.analyze(benchmark.arch, systems[i], candidates[i].drop);

  util::ThreadPool pool(2);
  std::vector<core::McAnalysisResult> nested(candidates.size());
  pool.parallel_for(candidates.size(), [&](std::size_t i) {
    nested[i] = analysis.analyze(benchmark.arch, systems[i],
                                 candidates[i].drop,
                                 McAnalysis::Mode::kProposed, &pool);
  });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    expect_identical(sequential[i], nested[i]);
  }
}

// The GA's shape one level up: a candidate-level parallel_for over
// evaluate_uncached whose scenario_pool is that same pool.  A worker
// waiting in one candidate's scenario fan-out drains the queue and starts
// another candidate's evaluation on its own thread, while the first still
// holds its leased hardened view and scenario arena; each nested call must
// lease its own, so every evaluation equals the sequential pass.
TEST(ParallelAnalysis, NestedEvaluationsMatchSequential) {
  const benchmarks::Benchmark benchmark = benchmarks::dt_med_benchmark();
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(404);
  const sched::HolisticAnalysis backend;
  std::vector<core::Candidate> candidates;
  for (int i = 0; i < 48; ++i) {
    dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
    candidates.push_back(decoder.decode(chromosome, rng));
  }

  const core::Evaluator sequential_evaluator(benchmark.arch, benchmark.apps,
                                             backend);
  std::vector<core::Evaluation> sequential;
  for (const core::Candidate& candidate : candidates)
    sequential.push_back(sequential_evaluator.evaluate_uncached(candidate));

  util::ThreadPool pool(3);
  core::Evaluator::Options options;
  options.scenario_pool = &pool;
  const core::Evaluator nested_evaluator(benchmark.arch, benchmark.apps,
                                         backend, options);
  std::vector<core::Evaluation> nested(candidates.size());
  pool.parallel_for(candidates.size(), [&](std::size_t i) {
    nested[i] = nested_evaluator.evaluate_uncached(candidates[i]);
  });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    EXPECT_EQ(sequential[i].feasible(), nested[i].feasible());
    EXPECT_EQ(sequential[i].normal_schedulable, nested[i].normal_schedulable);
    EXPECT_EQ(sequential[i].critical_schedulable,
              nested[i].critical_schedulable);
    EXPECT_EQ(sequential[i].power, nested[i].power);
    EXPECT_EQ(sequential[i].service, nested[i].service);
    EXPECT_EQ(sequential[i].scenario_count, nested[i].scenario_count);
    EXPECT_EQ(sequential[i].scenario_solves, nested[i].scenario_solves);
    EXPECT_EQ(sequential[i].graph_wcrt, nested[i].graph_wcrt);
  }
}

}  // namespace
