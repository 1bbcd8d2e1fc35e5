// Randomized differential fuzz of the hardening transform: the production
// flat build (hardening::build_view), the T' it materializes
// (hardening::apply_hardening) and the evaluation path that reads only the
// view, against the TaskGraph-building transform and evaluation kept in
// tests/oracle/hardening_oracle.hpp.
//
// Each iteration draws a candidate for one of Synth-1, DT-med, DT-large and
// Cruise: half decoded from a random chromosome (the candidates the DSE
// evaluates, sometimes feasible), half a raw random plan (every technique,
// 2-4 active replicas, arbitrary PEs, random drop sets and allocations, so
// the infeasibility penalty runs too).  It requires:
//
//   - the materialized system equals the oracle's field by field: graph
//     names and attributes, task names and times, channels, topological
//     order, info and mapping; the view's sinks, topological positions and
//     periods agree with the oracle's TaskGraphs;
//   - a view rebuilt in place (one view reused by every iteration, as the
//     evaluator's lease reuses it) equals a fresh one;
//   - McAnalysis on the view equals Algorithm 1 on the oracle T' (both
//     modes; the production backend, and every fourth iteration the oracle
//     backend, which enters through the view entry's materializing
//     adapter);
//   - Evaluator::evaluate_uncached equals oracle::evaluate bit for bit.
//
// Environment knobs: FTMC_FUZZ_ITERS (default 24), FTMC_FUZZ_SEED (default
// 2024).  The base seed is printed; rerun one failing input with
// FTMC_FUZZ_SEED=<seed> FTMC_FUZZ_ITERS=1.
#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/sched/holistic.hpp"
#include "helpers.hpp"
#include "oracle/hardening_oracle.hpp"
#include "oracle/holistic_oracle.hpp"
#include "oracle/mc_analysis_oracle.hpp"

namespace {

using namespace ftmc;
using fixtures::env_size;
using fixtures::env_u64;
using fixtures::expect_same_mc_result;

const std::vector<benchmarks::Benchmark>& systems() {
  static const std::vector<benchmarks::Benchmark> all = {
      benchmarks::synth_benchmark(1), benchmarks::dt_med_benchmark(),
      benchmarks::dt_large_benchmark(), benchmarks::cruise_benchmark()};
  return all;
}

model::ProcessorId random_pe(const model::Architecture& arch,
                             util::Rng& rng) {
  return model::ProcessorId{
      static_cast<std::uint32_t>(rng.index(arch.processor_count()))};
}

/// A raw random plan, mapping, drop set and allocation (valid structure,
/// arbitrary content).
core::Candidate random_candidate(const benchmarks::Benchmark& system,
                                 util::Rng& rng) {
  const model::ApplicationSet& apps = system.apps;
  core::Candidate candidate;
  candidate.allocation.resize(system.arch.processor_count());
  bool any = false;
  for (std::size_t p = 0; p < candidate.allocation.size(); ++p) {
    candidate.allocation[p] = rng.chance(0.85);
    any = any || candidate.allocation[p];
  }
  if (!any) candidate.allocation[0] = true;
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g)
    candidate.drop.push_back(apps.graph(model::GraphId{g}).droppable() &&
                             rng.chance(0.5));
  candidate.plan.resize(apps.task_count());
  candidate.base_mapping.resize(apps.task_count());
  for (std::size_t i = 0; i < apps.task_count(); ++i) {
    candidate.base_mapping[i] = random_pe(system.arch, rng);
    hardening::TaskHardening& decision = candidate.plan[i];
    const bool replicable = apps.task(apps.task_ref(i)).voting_overhead > 0;
    switch (rng.index(replicable ? 4 : 2)) {
      case 0:
        break;
      case 1:
        decision.technique = hardening::Technique::kReexecution;
        decision.reexecutions = static_cast<int>(1 + rng.index(3));
        break;
      case 2:
        decision.technique = hardening::Technique::kActiveReplication;
        decision.replica_pes.resize(2 + rng.index(3));
        break;
      default:
        decision.technique = hardening::Technique::kPassiveReplication;
        decision.replica_pes.resize(3);
        break;
    }
    for (model::ProcessorId& pe : decision.replica_pes)
      pe = random_pe(system.arch, rng);
    if (!decision.replica_pes.empty())
      decision.voter_pe = random_pe(system.arch, rng);
  }
  return candidate;
}

core::Candidate draw_candidate(const benchmarks::Benchmark& system,
                               util::Rng& rng) {
  if (rng.chance(0.5)) return random_candidate(system, rng);
  const dse::Decoder decoder(system.arch, system.apps);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  return decoder.decode(chromosome, rng);
}

void expect_same_system(const hardening::HardenedSystem& oracle,
                        const hardening::HardenedSystem& system) {
  ASSERT_EQ(oracle.apps.graph_count(), system.apps.graph_count());
  for (std::uint32_t g = 0; g < oracle.apps.graph_count(); ++g) {
    SCOPED_TRACE("graph " + std::to_string(g));
    const model::TaskGraph& a = oracle.apps.graph(model::GraphId{g});
    const model::TaskGraph& b = system.apps.graph(model::GraphId{g});
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.period(), b.period());
    EXPECT_EQ(a.reliability_constraint(), b.reliability_constraint());
    EXPECT_EQ(a.service_value(), b.service_value());
    ASSERT_EQ(a.task_count(), b.task_count());
    for (std::uint32_t v = 0; v < a.task_count(); ++v) {
      EXPECT_EQ(a.task(v).name, b.task(v).name);
      EXPECT_EQ(a.task(v).bcet, b.task(v).bcet);
      EXPECT_EQ(a.task(v).wcet, b.task(v).wcet);
      EXPECT_EQ(a.task(v).voting_overhead, b.task(v).voting_overhead);
      EXPECT_EQ(a.task(v).detection_overhead, b.task(v).detection_overhead);
    }
    ASSERT_EQ(a.channels().size(), b.channels().size());
    for (std::size_t c = 0; c < a.channels().size(); ++c) {
      EXPECT_EQ(a.channels()[c].src, b.channels()[c].src);
      EXPECT_EQ(a.channels()[c].dst, b.channels()[c].dst);
      EXPECT_EQ(a.channels()[c].size_bytes, b.channels()[c].size_bytes);
    }
    EXPECT_EQ(a.topological_order(), b.topological_order());
    EXPECT_EQ(a.sinks(), b.sinks());
  }
  EXPECT_EQ(oracle.apps.hyperperiod(), system.apps.hyperperiod());
  EXPECT_EQ(oracle.mapping, system.mapping);
  ASSERT_EQ(oracle.info.size(), system.info.size());
  for (std::size_t i = 0; i < oracle.info.size(); ++i) {
    EXPECT_EQ(oracle.info[i].role, system.info[i].role);
    EXPECT_EQ(oracle.info[i].origin, system.info[i].origin);
    EXPECT_EQ(oracle.info[i].reexecutions, system.info[i].reexecutions);
    EXPECT_EQ(oracle.info[i].pays_detection, system.info[i].pays_detection);
    EXPECT_EQ(oracle.info[i].triggers_critical_state,
              system.info[i].triggers_critical_state);
  }
}

/// The view's own order data (not read back by materialize) against the
/// oracle's TaskGraphs.
void expect_view_matches(const hardening::HardenedSystem& oracle,
                         const hardening::HardenedView& view) {
  ASSERT_EQ(view.node_count(), oracle.apps.task_count());
  ASSERT_EQ(view.graph_count(), oracle.apps.graph_count());
  EXPECT_EQ(view.hyperperiod, oracle.apps.hyperperiod());
  for (std::uint32_t g = 0; g < oracle.apps.graph_count(); ++g) {
    const model::TaskGraph& graph = oracle.apps.graph(model::GraphId{g});
    const std::uint32_t first = view.node_offsets[g];
    EXPECT_EQ(first, oracle.apps.flat_index({g, 0}));
    EXPECT_EQ(view.period[g], graph.period());
    EXPECT_EQ(view.droppable[g] != 0, graph.droppable());
    const auto& order = graph.topological_order();
    for (std::uint32_t k = 0; k < order.size(); ++k)
      EXPECT_EQ(view.topo[first + order[k]], k);
    std::vector<std::uint32_t> sinks(
        view.sinks.begin() + view.sink_offsets[g],
        view.sinks.begin() + view.sink_offsets[g + 1]);
    for (std::uint32_t& sink : sinks) sink -= first;
    EXPECT_EQ(sinks, graph.sinks());
  }
}

void expect_same_view(const hardening::HardenedView& a,
                      const hardening::HardenedView& b) {
  EXPECT_EQ(a.source, b.source);
  ASSERT_EQ(a.info.size(), b.info.size());
  for (std::size_t i = 0; i < a.info.size(); ++i) {
    EXPECT_EQ(a.info[i].role, b.info[i].role);
    EXPECT_EQ(a.info[i].origin, b.info[i].origin);
    EXPECT_EQ(a.info[i].reexecutions, b.info[i].reexecutions);
    EXPECT_EQ(a.info[i].pays_detection, b.info[i].pays_detection);
    EXPECT_EQ(a.info[i].triggers_critical_state,
              b.info[i].triggers_critical_state);
  }
  EXPECT_EQ(a.pe, b.pe);
  EXPECT_EQ(a.bcet, b.bcet);
  EXPECT_EQ(a.wcet, b.wcet);
  EXPECT_EQ(a.detection, b.detection);
  EXPECT_EQ(a.topo, b.topo);
  EXPECT_EQ(a.node_offsets, b.node_offsets);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.droppable, b.droppable);
  EXPECT_EQ(a.sink_offsets, b.sink_offsets);
  EXPECT_EQ(a.sinks, b.sinks);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    EXPECT_EQ(a.channels[c].src, b.channels[c].src);
    EXPECT_EQ(a.channels[c].dst, b.channels[c].dst);
    EXPECT_EQ(a.channels[c].size_bytes, b.channels[c].size_bytes);
  }
  EXPECT_EQ(a.channel_offsets, b.channel_offsets);
  EXPECT_EQ(a.hyperperiod, b.hyperperiod);
}

void expect_same_evaluation(const core::Evaluation& a,
                            const core::Evaluation& b) {
  EXPECT_EQ(a.mapping_valid, b.mapping_valid);
  EXPECT_EQ(a.reliability_ok, b.reliability_ok);
  EXPECT_EQ(a.normal_schedulable, b.normal_schedulable);
  EXPECT_EQ(a.critical_schedulable, b.critical_schedulable);
  EXPECT_EQ(a.power, b.power);  // bit for bit, not within a tolerance
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.scenario_count, b.scenario_count);
  EXPECT_EQ(a.scenario_solves, b.scenario_solves);
  EXPECT_EQ(a.graph_wcrt, b.graph_wcrt);
}

core::Evaluator::Options random_options(util::Rng& rng) {
  core::Evaluator::Options options;
  options.mode = rng.chance(0.8) ? core::McAnalysis::Mode::kProposed
                                 : core::McAnalysis::Mode::kNaive;
  static constexpr sched::PriorityPolicy kPolicies[] = {
      sched::PriorityPolicy::kRateMonotonic,
      sched::PriorityPolicy::kCriticalityRateMonotonic,
      sched::PriorityPolicy::kFlatIndex};
  options.policy = kPolicies[rng.index(3)];
  return options;
}

TEST(TransformFuzz, FlatBuildAndEvaluationMatchOracleTransform) {
  const std::size_t iters = env_size("FTMC_FUZZ_ITERS", 24);
  const std::uint64_t base_seed = env_u64("FTMC_FUZZ_SEED", 2024);
  std::cout << "[ transform fuzz ] FTMC_FUZZ_SEED=" << base_seed
            << " FTMC_FUZZ_ITERS=" << iters << "\n";
  const sched::HolisticAnalysis backend;
  const oracle::HolisticOracle oracle_backend;
  hardening::HardenedView reused;
  std::size_t replicated = 0;
  std::size_t infeasible = 0;
  std::size_t feasible = 0;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
    const benchmarks::Benchmark& system =
        systems()[rng.index(systems().size())];
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", seed " +
                 std::to_string(seed) + ", " + system.name +
                 " (rerun just this input with FTMC_FUZZ_SEED=" +
                 std::to_string(seed) + " FTMC_FUZZ_ITERS=1)");
    const core::Candidate candidate = draw_candidate(system, rng);
    const std::size_t pes = system.arch.processor_count();

    const hardening::HardenedSystem reference = oracle::apply_hardening(
        system.apps, candidate.plan, candidate.base_mapping, pes);
    const hardening::HardenedSystem hardened = hardening::apply_hardening(
        system.apps, candidate.plan, candidate.base_mapping, pes);
    expect_same_system(reference, hardened);
    expect_view_matches(reference, hardened.view);
    hardening::build_view(reused, system.apps, candidate.plan,
                          candidate.base_mapping, pes);
    expect_same_view(hardened.view, reused);
    if (reference.apps.task_count() > system.apps.task_count()) ++replicated;

    for (const auto mode : {core::McAnalysis::Mode::kProposed,
                            core::McAnalysis::Mode::kNaive}) {
      SCOPED_TRACE(mode == core::McAnalysis::Mode::kProposed ? "proposed"
                                                             : "naive");
      const auto check = [&](const sched::SchedulingAnalysis& analysis) {
        const core::McAnalysisResult expected = oracle::mc_analyze(
            analysis, system.arch, reference, candidate.drop, mode);
        const core::McAnalysisResult actual =
            core::McAnalysis(analysis).analyze(system.arch, reused,
                                               candidate.drop, mode);
        expect_same_mc_result(expected, actual);
        EXPECT_EQ(expected.scenario_solves, actual.scenario_solves);
      };
      check(backend);
      if (iter % 4 == 0) {
        SCOPED_TRACE("oracle backend, materializing view adapter");
        check(oracle_backend);
      }
    }

    const core::Evaluator::Options options = random_options(rng);
    // One input in ten is evaluated without dropping: the no-dropping
    // ablation's candidates carry an empty drop set.
    core::Candidate evaluated = candidate;
    if (!rng.chance(0.9))
      evaluated.drop.assign(evaluated.drop.size(), false);
    const core::Evaluator evaluator(system.arch, system.apps, backend,
                                    options);
    const core::Evaluation evaluation = evaluator.evaluate_uncached(evaluated);
    expect_same_evaluation(
        oracle::evaluate(system.arch, system.apps, backend, options,
                         evaluated),
        evaluation);
    ++(evaluation.feasible() ? feasible : infeasible);
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }
  // Coverage guard: replication, and both evaluation outcomes, were drawn.
  if (iters >= 8) {
    EXPECT_GT(replicated, 0u);
    EXPECT_GT(infeasible, 0u);
    EXPECT_GT(feasible, 0u);
  }
}

}  // namespace
