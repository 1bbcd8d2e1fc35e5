// Differential lockdown of the prepared-problem analysis kernel.
//
// The kernel restructures the holistic backend three ways — build the
// problem once per candidate and solve N bounds vectors against it, pack the
// relation matrix as bitset rows, and run the worst-case fixed point as a
// change-driven worklist in topological order.  Every restructuring must be
// observationally invisible: these tests pin, against the test-only seed
// kernel oracle::HolisticOracle (tests/oracle/),
//
//   - prepare-once/solve-N against N independent oracle analyze() calls,
//   - prepared-kernel McAnalysis against McAnalysis on the oracle backend
//     (which enters through the rebuild-per-solve adapter),
//   - GA search trajectories on the production kernel vs. the oracle,
//
// bitwise, across >= 100 seeded candidates, in both the offset-aware and
// the classical jitter-fallback regimes, sequentially and on a thread pool,
// including diverged (unschedulable) problems and scratch reuse across
// different problems.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/exec_model.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/prepared_problem.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"
#include "oracle/holistic_oracle.hpp"

namespace {

using namespace ftmc;
using fixtures::CandidateFixture;
using fixtures::expect_same_mc_result;
using fixtures::expect_same_result;
using fixtures::make_candidate;
using fixtures::scenario_like_bounds;
using sched::PreparedProblem;

/// Core differential: one PreparedProblem, N solves on one reused scratch,
/// against N oracle analyze() calls and against the production one-shot
/// analyze() entry — in both interference regimes.
void run_backend_differential(const benchmarks::Benchmark& benchmark,
                              std::size_t candidate_count,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  PreparedProblem::Scratch scratch;  // shared across candidates on purpose
  for (std::size_t c = 0; c < candidate_count; ++c) {
    const CandidateFixture fx = make_candidate(benchmark, rng);
    const auto bounds_sets = scenario_like_bounds(fx.system, 6, rng);
    for (const bool offset_aware : {true, false}) {
      SCOPED_TRACE(benchmark.name + " candidate " + std::to_string(c) +
                   (offset_aware ? ", offset-aware" : ", jitter-fallback"));
      sched::HolisticAnalysis::Options options;
      options.precedence_aware = offset_aware;
      const oracle::HolisticOracle oracle(options);
      const sched::HolisticAnalysis one_shot(options);
      const PreparedProblem prepared(benchmark.arch, fx.system.apps,
                                     fx.system.mapping, fx.priorities,
                                     options);

      for (const auto& bounds : bounds_sets) {
        const sched::AnalysisResult reference =
            oracle.analyze(benchmark.arch, fx.system.apps, fx.system.mapping,
                           bounds, fx.priorities);
        {
          SCOPED_TRACE("prepared arm");
          prepared.solve(bounds, scratch);
          expect_same_result(reference, prepared.materialize(scratch));
        }
        {
          SCOPED_TRACE("one-shot arm");
          expect_same_result(
              reference, one_shot.analyze(benchmark.arch, fx.system.apps,
                                          fx.system.mapping, bounds,
                                          fx.priorities));
        }
      }
    }
  }
}

TEST(PreparedProblemDifferential, Synth1SolveNEqualsNAnalyzeCalls) {
  run_backend_differential(benchmarks::synth_benchmark(1), 60, 11);
}

TEST(PreparedProblemDifferential, Synth2SolveNEqualsNAnalyzeCalls) {
  run_backend_differential(benchmarks::synth_benchmark(2), 40, 22);
}

// Bus contention adds message nodes on the shared-bus pseudo-PE — the
// prepared structure must carry them (and their bounds-dependent silencing)
// identically.
TEST(PreparedProblemDifferential, BusContentionMessageNodesMatch) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  util::Rng rng(33);
  PreparedProblem::Scratch scratch;
  for (std::size_t c = 0; c < 10; ++c) {
    SCOPED_TRACE("candidate " + std::to_string(c));
    const CandidateFixture fx = make_candidate(benchmark, rng);
    sched::HolisticAnalysis::Options options;
    options.bus_contention = true;
    const oracle::HolisticOracle oracle(options);
    const PreparedProblem prepared(benchmark.arch, fx.system.apps,
                                   fx.system.mapping, fx.priorities, options);
    for (const auto& bounds : scenario_like_bounds(fx.system, 4, rng)) {
      prepared.solve(bounds, scratch);
      expect_same_result(
          oracle.analyze(benchmark.arch, fx.system.apps, fx.system.mapping,
                         bounds, fx.priorities),
          prepared.materialize(scratch));
    }
  }
}

// Parallel solvers sharing one immutable PreparedProblem (per-worker
// thread-local scratch) must reproduce the sequential results exactly.
TEST(PreparedProblemDifferential, ParallelSolversShareOnePreparedProblem) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  util::Rng rng(44);
  for (std::size_t c = 0; c < 8; ++c) {
    SCOPED_TRACE("candidate " + std::to_string(c));
    const CandidateFixture fx = make_candidate(benchmark, rng);
    const PreparedProblem prepared(benchmark.arch, fx.system.apps,
                                   fx.system.mapping, fx.priorities, {});
    const auto bounds_sets = scenario_like_bounds(fx.system, 16, rng);

    std::vector<sched::AnalysisResult> sequential(bounds_sets.size());
    for (std::size_t i = 0; i < bounds_sets.size(); ++i)
      sequential[i] = prepared.solve(bounds_sets[i]);

    for (const std::size_t threads : {2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      util::ThreadPool pool(threads);
      std::vector<sched::AnalysisResult> parallel(bounds_sets.size());
      pool.parallel_for(bounds_sets.size(), [&](std::size_t i) {
        parallel[i] = prepared.solve(bounds_sets[i]);
      });
      for (std::size_t i = 0; i < bounds_sets.size(); ++i)
        expect_same_result(sequential[i], parallel[i]);
    }
  }
}

// Overloaded problem: utilization far beyond capacity, so the fixed point
// diverges past the horizon.  Divergence verdicts, kUnschedulable windows,
// and the best-case (still finite) bounds must agree between the oracle,
// the one-shot entry, and the prepared kernel, in both regimes.
TEST(PreparedProblemDifferential, DivergedProblemMatchesInEveryMode) {
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(fixtures::chain_graph("over1", 3, 300, 600, 1000, false,
                                         1e-6));
  graphs.push_back(fixtures::chain_graph("over2", 3, 300, 600, 1000, false,
                                         1e-6));
  graphs.push_back(fixtures::chain_graph("over3", 2, 200, 500, 1000, true,
                                         1.0));
  const model::ApplicationSet apps{std::move(graphs)};
  const auto arch = fixtures::test_arch(1);
  const model::Mapping mapping(apps);  // everything on the single PE
  const auto priorities = sched::assign_priorities(apps);
  std::vector<sched::ExecBounds> bounds(apps.task_count());
  for (std::size_t i = 0; i < bounds.size(); ++i)
    bounds[i] = {apps.task(apps.task_ref(i)).bcet,
                 apps.task(apps.task_ref(i)).wcet};

  for (const bool offset_aware : {true, false}) {
    SCOPED_TRACE(offset_aware ? "offset-aware" : "jitter-fallback");
    sched::HolisticAnalysis::Options options;
    options.precedence_aware = offset_aware;
    const auto reference = oracle::HolisticOracle(options).analyze(
        arch, apps, mapping, bounds, priorities);
    EXPECT_FALSE(reference.schedulable);

    expect_same_result(reference,
                       sched::HolisticAnalysis(options).analyze(
                           arch, apps, mapping, bounds, priorities));
    const PreparedProblem prepared(arch, apps, mapping, priorities, options);
    expect_same_result(reference, prepared.solve(bounds));
  }
}

// Scratch is problem-agnostic: reusing one scratch across problems of
// different sizes must not leak state between them.
TEST(PreparedProblem, ScratchReuseAcrossProblemsIsClean) {
  const benchmarks::Benchmark big = benchmarks::synth_benchmark(2);
  const benchmarks::Benchmark small = benchmarks::synth_benchmark(1);
  util::Rng rng(55);
  const CandidateFixture fx_big = make_candidate(big, rng);
  const CandidateFixture fx_small = make_candidate(small, rng);
  const PreparedProblem prepared_big(big.arch, fx_big.system.apps,
                                     fx_big.system.mapping,
                                     fx_big.priorities, {});
  const PreparedProblem prepared_small(small.arch, fx_small.system.apps,
                                       fx_small.system.mapping,
                                       fx_small.priorities, {});
  const auto bounds_big = core::nominal_bounds_of(fx_big.system);
  const auto bounds_small = core::nominal_bounds_of(fx_small.system);

  PreparedProblem::Scratch fresh_a, fresh_b, reused;
  prepared_big.solve(bounds_big, fresh_a);
  prepared_small.solve(bounds_small, fresh_b);
  // Large problem first, then the smaller one on the same scratch.
  prepared_big.solve(bounds_big, reused);
  expect_same_result(prepared_big.materialize(fresh_a),
                     prepared_big.materialize(reused));
  prepared_small.solve(bounds_small, reused);
  expect_same_result(prepared_small.materialize(fresh_b),
                     prepared_small.materialize(reused));
}

TEST(PreparedProblem, RejectsMalformedInputs) {
  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  util::Rng rng(66);
  const CandidateFixture fx = make_candidate(benchmark, rng);
  std::vector<std::uint32_t> short_priorities(fx.priorities.begin(),
                                              fx.priorities.end() - 1);
  EXPECT_THROW(PreparedProblem(benchmark.arch, fx.system.apps,
                               fx.system.mapping, short_priorities, {}),
               std::invalid_argument);

  const PreparedProblem prepared(benchmark.arch, fx.system.apps,
                                 fx.system.mapping, fx.priorities, {});
  std::vector<sched::ExecBounds> short_bounds(fx.system.apps.task_count() -
                                              1);
  EXPECT_THROW(prepared.solve(short_bounds), std::invalid_argument);
  std::vector<sched::ExecBounds> invalid(fx.system.apps.task_count());
  invalid[0] = {10, 5};  // wcet < bcet
  EXPECT_THROW(prepared.solve(invalid), std::invalid_argument);
}

// McAnalysis end-to-end: the prepared kernel against the oracle backend
// (solved through the rebuild-per-solve adapter), both Algorithm-1 modes,
// sequential and on a pool — real transition scenarios, real dedup, real
// release cutoffs.
void run_mc_differential(const benchmarks::Benchmark& benchmark,
                         std::size_t candidate_count, std::uint64_t seed) {
  util::Rng rng(seed);
  const sched::HolisticAnalysis prepared_backend;
  const oracle::HolisticOracle oracle_backend;
  const core::McAnalysis with_kernel(prepared_backend);
  const core::McAnalysis without_kernel(oracle_backend);

  for (std::size_t c = 0; c < candidate_count; ++c) {
    const CandidateFixture fx = make_candidate(benchmark, rng);
    for (const core::McAnalysis::Mode mode :
         {core::McAnalysis::Mode::kProposed, core::McAnalysis::Mode::kNaive}) {
      SCOPED_TRACE(benchmark.name + " candidate " + std::to_string(c) +
                   (mode == core::McAnalysis::Mode::kProposed ? ", proposed"
                                                              : ", naive"));
      const auto reference = without_kernel.analyze(
          benchmark.arch, fx.system, fx.candidate.drop, mode);
      expect_same_mc_result(reference,
                            with_kernel.analyze(benchmark.arch, fx.system,
                                                fx.candidate.drop, mode));
      util::ThreadPool pool(4);
      expect_same_mc_result(
          reference, with_kernel.analyze(benchmark.arch, fx.system,
                                         fx.candidate.drop, mode, &pool));
    }
  }
}

TEST(PreparedProblemDifferential, McAnalysisKernelOnOffIdenticalSynth1) {
  run_mc_differential(benchmarks::synth_benchmark(1), 12, 77);
}

TEST(PreparedProblemDifferential, McAnalysisKernelOnOffIdenticalSynth2) {
  run_mc_differential(benchmarks::synth_benchmark(2), 8, 88);
}

// Whole-search lockdown: a fixed-seed GA run with the prepared kernel must
// walk the exact same trajectory as one on the oracle backend.
TEST(PreparedProblemDifferential, GaTrajectoryIdenticalKernelOnOff) {
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis prepared_backend;
  const oracle::HolisticOracle oracle_backend;

  dse::GaOptions options;
  options.population = 16;
  options.offspring = 16;
  options.generations = 5;
  options.seed = 321;
  options.threads = 2;

  const dse::GaResult a =
      dse::GeneticOptimizer(arch, apps, prepared_backend).run(options);
  const dse::GaResult b =
      dse::GeneticOptimizer(arch, apps, oracle_backend).run(options);

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

}  // namespace
