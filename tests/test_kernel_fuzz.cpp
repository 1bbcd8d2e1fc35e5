// Randomized differential fuzz harness for the WCRT analysis kernel: three
// backends
//
//   oracle    tests/oracle/: an independent copy of the seed kernel
//             (per-call build, division-based operator, full sweep, raw
//             release cutoffs),
//   worklist  the production change-driven worklist, one scalar solve()
//             per bounds vector,
//   batched   the production solve_many(): scenarios as lanes of one joint
//             round loop (cross-lane sharing, post-fold lane dedup),
//
// must produce bitwise-identical bounds, schedulability verdicts, and
// divergence flags on every input.  Each iteration draws a random system
// (graph shapes, criticality mixes, utilization including overload,
// bus/no-bus, offset-aware vs jitter-fallback) and a random decoded
// candidate, then cross-checks the backends at two levels:
//
//   - McAnalysis::analyze end-to-end (real transition scenarios, real
//     release cutoffs, real dedup; the production kernel both sequential —
//     every unique scenario in one batch — and pooled — one batch per
//     worker), and
//   - PreparedProblem::solve / solve_many against the oracle on
//     scenario-shaped bounds vectors.
//
// Every failure is SCOPED_TRACE-tagged with the iteration seed; rerun a
// single failing input with FTMC_FUZZ_SEED=<seed> FTMC_FUZZ_ITERS=1.
//
// Environment knobs: FTMC_FUZZ_ITERS (default 40 — the short deterministic
// tier-1 subset; CI's sanitizer job raises it to 300), FTMC_FUZZ_SEED
// (default 2024, the base of the per-iteration seed sequence).
//
// A second fuzz loop checks McAnalysis itself against the plain Algorithm 1
// of tests/oracle/ on both the production and the oracle backend.  In both
// loops each iteration also decodes a random candidate of one of the
// paper's systems (DT-med on even iterations, DT-large on odd ones) and
// checks it at the McAnalysis level: the task counts, harmonic periods and
// heterogeneous platforms the DSE actually evaluates, which the small
// random systems do not reach.  Below the fuzz loops, hand-made systems pin
// the operator's edge cases against the oracle and against hand-computed
// bounds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/prepared_problem.hpp"
#include "ftmc/util/rng.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"
#include "oracle/holistic_oracle.hpp"
#include "oracle/mc_analysis_oracle.hpp"

namespace {

using namespace ftmc;
using fixtures::CandidateFixture;
using fixtures::env_size;
using fixtures::env_u64;
using fixtures::expect_same_mc_result;
using fixtures::expect_same_result;
using fixtures::make_candidate;
using fixtures::scenario_like_bounds;
using sched::ExecBounds;
using sched::PreparedProblem;

/// A random mixed-critical system: random DAG shapes, criticality mix,
/// utilization (occasionally overloaded so the fixed point diverges),
/// channel sizes, and platform size.
benchmarks::Benchmark random_benchmark(util::Rng& rng) {
  benchmarks::SynthParams params;
  params.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  params.graph_count = 2 + rng.index(4);
  params.min_tasks = 2 + rng.index(3);
  params.max_tasks = params.min_tasks + 1 + rng.index(5);
  params.graph_utilization =
      rng.chance(0.15) ? rng.uniform_real(0.9, 1.6)  // overload -> divergence
                       : rng.uniform_real(0.08, 0.45);
  params.bcet_fraction = rng.uniform_real(0.2, 0.95);
  params.extra_edge_probability = rng.uniform_real(0.0, 0.4);
  params.droppable_fraction = rng.uniform_real(0.0, 1.0);
  // (bus-free systems come from Options::bus_contention = false below; the
  // generator requires a non-zero channel-size menu.)
  params.max_channel_bytes = 1 + rng.index(4096);
  return benchmarks::Benchmark{
      "fuzz",
      fixtures::test_arch(1 + rng.index(4), rng.chance(0.5) ? 1.0 : 0.25),
      benchmarks::synthetic_applications(params)};
}

/// DT-med and DT-large (paper §5), built once per process.
const benchmarks::Benchmark& paper_system(std::size_t iter) {
  static const benchmarks::Benchmark systems[] = {
      benchmarks::dt_med_benchmark(), benchmarks::dt_large_benchmark()};
  return systems[iter % 2];
}

void run_mc_level(const benchmarks::Benchmark& benchmark,
                  const CandidateFixture& fx,
                  const sched::HolisticAnalysis::Options& regime,
                  util::ThreadPool& pool) {
  const oracle::HolisticOracle oracle_backend(regime);
  const sched::HolisticAnalysis kernel_backend(regime);
  const core::McAnalysis oracle(oracle_backend);
  const core::McAnalysis kernel(kernel_backend);

  for (const auto mode :
       {core::McAnalysis::Mode::kProposed, core::McAnalysis::Mode::kNaive}) {
    SCOPED_TRACE(mode == core::McAnalysis::Mode::kProposed ? "proposed"
                                                           : "naive");
    const auto reference =
        oracle.analyze(benchmark.arch, fx.system, fx.candidate.drop, mode);
    const auto sequential =
        kernel.analyze(benchmark.arch, fx.system, fx.candidate.drop, mode);
    {
      SCOPED_TRACE("kernel (one batch) vs oracle");
      expect_same_mc_result(reference, sequential);
    }
    const auto pooled = kernel.analyze(benchmark.arch, fx.system,
                                       fx.candidate.drop, mode, &pool);
    {
      SCOPED_TRACE("kernel (batch per worker) vs oracle");
      expect_same_mc_result(reference, pooled);
    }
    // The solve count is a pure function of the inputs, not of the kernel.
    EXPECT_EQ(reference.scenario_solves, sequential.scenario_solves);
    EXPECT_EQ(reference.scenario_solves, pooled.scenario_solves);
  }
}

void run_prepared_level(const benchmarks::Benchmark& benchmark,
                        const CandidateFixture& fx,
                        const sched::HolisticAnalysis::Options& regime,
                        util::Rng& rng) {
  const oracle::HolisticOracle oracle(regime);
  // Half the inputs rank tasks with ties (equal ranks never interfere with
  // each other), which assign_priorities never produces.
  std::vector<std::uint32_t> priorities = fx.priorities;
  if (rng.chance(0.5))
    for (std::uint32_t& rank : priorities)
      rank = static_cast<std::uint32_t>(rng.index(priorities.size() / 2 + 1));
  const PreparedProblem kernel(benchmark.arch, fx.system.apps,
                               fx.system.mapping, priorities, regime);

  auto bounds_sets = scenario_like_bounds(fx.system, 3 + rng.index(8), rng);
  // A repeated scenario exercises the batch solver's lane dedup.
  bounds_sets.push_back(bounds_sets[rng.index(bounds_sets.size())]);
  std::vector<sched::AnalysisResult> batched(bounds_sets.size());
  kernel.solve_many(bounds_sets, batched);
  for (std::size_t k = 0; k < bounds_sets.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    const auto reference =
        oracle.analyze(benchmark.arch, fx.system.apps, fx.system.mapping,
                       bounds_sets[k], priorities);
    {
      SCOPED_TRACE("worklist solve vs oracle");
      expect_same_result(reference, kernel.solve(bounds_sets[k]));
    }
    {
      SCOPED_TRACE("batched solve_many vs oracle");
      expect_same_result(reference, batched[k]);
    }
  }
}

TEST(KernelFuzz, ThreeBackendsBitwiseIdentical) {
  const std::size_t iters = env_size("FTMC_FUZZ_ITERS", 40);
  const std::uint64_t base_seed = env_u64("FTMC_FUZZ_SEED", 2024);
  util::ThreadPool pool(4);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", seed " +
                 std::to_string(seed) + " (rerun just this input with " +
                 "FTMC_FUZZ_SEED=" + std::to_string(seed) +
                 " FTMC_FUZZ_ITERS=1)");
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const benchmarks::Benchmark benchmark = random_benchmark(rng);
    const CandidateFixture fx = make_candidate(benchmark, rng);

    sched::HolisticAnalysis::Options regime;
    regime.bus_contention = rng.chance(0.5);
    regime.precedence_aware = rng.chance(0.8);

    run_mc_level(benchmark, fx, regime, pool);
    run_prepared_level(benchmark, fx, regime, rng);
    {
      const benchmarks::Benchmark& paper = paper_system(iter);
      SCOPED_TRACE(paper.name);
      run_mc_level(paper, make_candidate(paper, rng), regime, pool);
    }
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }

  // Coverage guard: the random inputs must actually have driven the paths
  // under test, or the bitwise assertions above prove nothing.
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  EXPECT_GT(snapshot.value_of("sched.worklist.node_evals"), 0u);
  EXPECT_GT(snapshot.value_of("sched.batch.solves"), 0u);
  EXPECT_GT(snapshot.value_of("sched.batch.lanes"),
            snapshot.value_of("sched.batch.solves"));
  EXPECT_GT(snapshot.value_of("sched.batch.dup_lanes"), 0u);
}

// McAnalysis (prepared problem, sparse scenario edits over the all-critical
// template, dedup, similarity sort, saturation probe, batched solve_many,
// optional pool) must be a pure transport optimization of Algorithm 1: on
// every random input, both Proposed and Naive results — including the
// solve count — are bitwise identical to the plain oracle (one full bounds
// vector and one backend analyze() per trigger), on the production backend
// and on the oracle backend (which enters McAnalysis through the
// rebuild-per-solve adapter).
TEST(KernelFuzz, McAnalysisMatchesAlgorithm1Oracle) {
  const std::size_t iters = env_size("FTMC_FUZZ_ITERS", 40);
  const std::uint64_t base_seed = env_u64("FTMC_FUZZ_SEED", 2024);
  util::ThreadPool pool(4);
  // Proposed analyses with at least two unique scenarios, by whether the
  // saturation probe skipped the others.
  std::size_t saturated = 0;
  std::size_t unsaturated = 0;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", seed " +
                 std::to_string(seed) + " (rerun just this input with " +
                 "FTMC_FUZZ_SEED=" + std::to_string(seed) +
                 " FTMC_FUZZ_ITERS=1)");
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 2);
    const benchmarks::Benchmark benchmark = random_benchmark(rng);
    const CandidateFixture fx = make_candidate(benchmark, rng);

    sched::HolisticAnalysis::Options regime;
    regime.bus_contention = rng.chance(0.5);
    regime.precedence_aware = rng.chance(0.8);
    util::ThreadPool* maybe_pool = rng.chance(0.5) ? &pool : nullptr;
    const auto check = [&](const benchmarks::Benchmark& system,
                           const CandidateFixture& input,
                           const sched::SchedulingAnalysis& backend,
                           const char* label) {
      SCOPED_TRACE(label);
      const core::McAnalysis analysis(backend);
      for (const auto mode : {core::McAnalysis::Mode::kProposed,
                              core::McAnalysis::Mode::kNaive}) {
        SCOPED_TRACE(mode == core::McAnalysis::Mode::kProposed ? "proposed"
                                                               : "naive");
        const auto reference = oracle::mc_analyze(
            backend, system.arch, input.system, input.candidate.drop, mode);
        const std::uint64_t skips_before =
            obs::snapshot().value_of("analysis.saturation_skips");
        const auto result =
            analysis.analyze(system.arch, input.system, input.candidate.drop,
                             mode, maybe_pool);
        const std::uint64_t skips =
            obs::snapshot().value_of("analysis.saturation_skips") -
            skips_before;
        expect_same_mc_result(reference, result);
        EXPECT_EQ(reference.scenario_solves, result.scenario_solves);
        // The probe skips all other unique scenarios or none.
        if (result.scenario_solves >= 4) {
          const std::size_t others = result.scenario_solves - 3;
          if (skips == 0) {
            ++unsaturated;
          } else {
            EXPECT_EQ(skips, others);
            ++saturated;
          }
        } else {
          EXPECT_EQ(skips, 0u);
        }
      }
    };
    check(benchmark, fx, sched::HolisticAnalysis(regime),
          "production backend");
    check(benchmark, fx, oracle::HolisticOracle(regime), "oracle backend");
    {
      const benchmarks::Benchmark& paper = paper_system(iter);
      SCOPED_TRACE(paper.name);
      const CandidateFixture paper_fx = make_candidate(paper, rng);
      check(paper, paper_fx, sched::HolisticAnalysis(regime),
            "production backend");
    }
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }

  // The sparse scenario construction must actually have run, and the
  // saturation probe must have taken both branches (a single-seed rerun
  // need not reach both).
  EXPECT_GT(obs::snapshot().value_of("analysis.bounds_edits"), 0u);
  if (iters >= 10) {
    EXPECT_GT(saturated, 0u);
    EXPECT_GT(unsaturated, 0u);
  }
}

// ---- Hand-made operator edge cases -------------------------------------
//
// Small systems on two PEs with zero-size channels (no transfer delay),
// explicit mappings and priorities, all graphs at period 100.

struct TaskSpec {
  const char* name;
  model::Time bcet, wcet;
  std::uint32_t pe, rank;
};

struct HandSystem {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps;
  model::Mapping mapping;
  std::vector<std::uint32_t> priorities;
  std::vector<ExecBounds> bounds;  ///< each task's {bcet, wcet}

  /// One graph per entry of `graphs`: its tasks, chained in order.
  explicit HandSystem(const std::vector<std::vector<TaskSpec>>& graphs)
      : apps(build(graphs)), mapping(apps) {
    std::size_t flat = 0;
    for (const auto& graph : graphs)
      for (const TaskSpec& task : graph) {
        mapping.assign_flat(flat++, model::ProcessorId{task.pe});
        priorities.push_back(task.rank);
        bounds.push_back({task.bcet, task.wcet});
      }
  }

  static model::ApplicationSet build(
      const std::vector<std::vector<TaskSpec>>& graphs) {
    std::vector<model::TaskGraph> built;
    for (const auto& graph : graphs) {
      model::TaskGraphBuilder builder(graph.front().name);
      for (std::uint32_t t = 0; t < graph.size(); ++t) {
        builder.add_task(graph[t].name, graph[t].bcet, graph[t].wcet);
        if (t > 0) builder.connect(t - 1, t);
      }
      builder.period(100).reliability(1e-6);
      built.push_back(builder.build());
    }
    return model::ApplicationSet(std::move(built));
  }

  /// Solves every bounds vector with the oracle, the scalar worklist, and
  /// the batched solver (one solve_many over the scenarios twice over, so
  /// it always runs at least two lanes), requires all of them to agree
  /// bitwise, and returns the oracle's results.
  std::vector<sched::AnalysisResult> solve_all(
      const std::vector<std::vector<ExecBounds>>& scenarios) const {
    const oracle::HolisticOracle oracle;
    const PreparedProblem kernel(arch, apps, mapping, priorities, {});
    std::vector<std::vector<ExecBounds>> lanes = scenarios;
    lanes.insert(lanes.end(), scenarios.begin(), scenarios.end());
    std::vector<sched::AnalysisResult> batched(lanes.size());
    kernel.solve_many(lanes, batched);
    std::vector<sched::AnalysisResult> references;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      SCOPED_TRACE("scenario " + std::to_string(k));
      references.push_back(
          oracle.analyze(arch, apps, mapping, scenarios[k], priorities));
      expect_same_result(references.back(), kernel.solve(scenarios[k]));
      expect_same_result(references.back(), batched[k]);
      expect_same_result(references.back(), batched[scenarios.size() + k]);
    }
    return references;
  }
};

// l0's busy window [0, w) meets h1's first release at 50 only once it is
// longer than 50: a window ending before the first release (negative job
// count in the seed's division) or exactly at it sees no interference.
TEST(KernelOracle, WindowEndingBeforeFirstReleaseSeesNoInterference) {
  const HandSystem system({{{"h0", 50, 50, 1, 1}, {"h1", 10, 10, 0, 0}},
                           {{"l0", 20, 20, 0, 2}}});
  std::vector<std::vector<ExecBounds>> scenarios;
  for (const model::Time wcet : {20, 50, 51}) {
    auto bounds = system.bounds;
    bounds[2] = {wcet, wcet};
    scenarios.push_back(bounds);
  }
  const auto results = system.solve_all(scenarios);
  EXPECT_EQ(results[0].windows[2].max_finish, 20);
  EXPECT_EQ(results[1].windows[2].max_finish, 50);
  EXPECT_EQ(results[2].windows[2].max_finish, 61);  // 51 + h1's 10
}

// a1 becomes ready at 40, exactly when the unrelated, higher-priority b0
// (released at 0) has finished at the latest: b0 cannot interfere.  Once
// b0 may run one unit longer, it can.
TEST(KernelOracle, InterfererDoneAtWindowStartIsSkipped) {
  const HandSystem system({{{"a0", 40, 40, 1, 1}, {"a1", 10, 10, 0, 2}},
                           {{"b0", 40, 40, 0, 0}}});
  auto longer = system.bounds;
  longer[2] = {40, 41};
  const auto results = system.solve_all({system.bounds, longer});
  EXPECT_EQ(results[0].windows[1].max_finish, 50);
  EXPECT_EQ(results[1].windows[1].max_finish, 91);  // 40 + 10 + b0's 41
}

// Release cutoffs on the interferer h1 (released at 50) as l0 (wcet 51)
// sees them: a cutoff before the first release folds to -1 and removes the
// job; one at the release keeps it; cutoffs in or beyond the sentinel band
// fold to kUnschedulable and mean "no cutoff".
TEST(KernelOracle, FoldedCutoffsKeepTheirMeaning) {
  const HandSystem system({{{"h0", 50, 50, 1, 1}, {"h1", 10, 10, 0, 0}},
                           {{"l0", 51, 51, 0, 2}}});
  const model::Time cutoffs[] = {0, 49, 50, 149, sched::kNoCutoff,
                                 sched::kUnschedulable + 1};
  std::vector<std::vector<ExecBounds>> scenarios;
  for (const model::Time cutoff : cutoffs) {
    auto bounds = system.bounds;
    bounds[1].release_cutoff = cutoff;
    scenarios.push_back(bounds);
  }
  const auto results = system.solve_all(scenarios);
  const model::Time expected[] = {51, 51, 61, 61, 61, 61};
  for (std::size_t k = 0; k < scenarios.size(); ++k)
    EXPECT_EQ(results[k].windows[2].max_finish, expected[k]) << "cutoff #" << k;
}

// r2 is a transitive successor of r0 on the same PE with higher priority,
// and may be released (best case: 5 + 5) while r0 still runs (worst case
// 30).  Precedence rules out that k = 0 job, so r0 sees no interference;
// with r2 in another graph it would (the control case, 30 + 10).
TEST(KernelOracle, RelatedFirstJobIsExcluded) {
  const HandSystem related({{{"r0", 5, 30, 0, 2},
                             {"r1", 5, 5, 1, 1},
                             {"r2", 10, 10, 0, 0}}});
  EXPECT_EQ(related.solve_all({related.bounds})[0].windows[0].max_finish, 30);
  const HandSystem unrelated({{{"r0", 5, 30, 0, 2}, {"r1", 5, 5, 1, 1}},
                              {{"x0", 10, 10, 0, 0}}});
  EXPECT_EQ(unrelated.solve_all({unrelated.bounds})[0].windows[0].max_finish,
            40);
}

// p is overloaded on PE 1 by q (utilization 1.4) and diverges; its
// successor u inherits the divergence (window clamped at horizon + 1).
// i, below u on PE 0, still counts u's job 0 — released at u's best-case
// start 10, never provably finished — and keeps a finite bound.
TEST(KernelOracle, DivergedInterfererStillInterferes) {
  const HandSystem system({{{"q", 90, 90, 1, 0}},
                           {{"p", 10, 50, 1, 1}, {"u", 20, 20, 0, 2}},
                           {{"i", 30, 30, 0, 3}}});
  const auto results = system.solve_all({system.bounds});
  EXPECT_FALSE(results[0].schedulable);
  EXPECT_FALSE(results[0].windows[2].schedulable);  // u
  EXPECT_TRUE(results[0].windows[3].schedulable);   // i
  EXPECT_EQ(results[0].windows[3].max_finish, 50);  // 30 + u's 20
}

}  // namespace
