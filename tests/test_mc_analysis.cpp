#include "ftmc/core/mc_analysis.hpp"

#include <gtest/gtest.h>

#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "helpers.hpp"
#include "oracle/mc_analysis_oracle.hpp"

namespace {

using namespace ftmc;
using core::DropSet;
using core::McAnalysis;
using hardening::HardeningPlan;
using hardening::Technique;
using model::ProcessorId;

hardening::HardenedSystem harden(const model::ApplicationSet& apps,
                                 const HardeningPlan& plan,
                                 std::size_t pes) {
  std::vector<ProcessorId> mapping(apps.task_count());
  for (std::size_t i = 0; i < mapping.size(); ++i)
    mapping[i] = ProcessorId{static_cast<std::uint32_t>(i % pes)};
  return hardening::apply_hardening(apps, plan, mapping, pes);
}

TEST(DropSetValidation, RejectsBadSets) {
  const auto apps = fixtures::small_mixed_apps();
  EXPECT_THROW(core::validate_drop_set(apps, DropSet{}),
               std::invalid_argument);
  // Graph 0 is critical.
  EXPECT_THROW(core::validate_drop_set(apps, DropSet{true, false}),
               std::invalid_argument);
  EXPECT_NO_THROW(core::validate_drop_set(apps, DropSet{false, true}));
}

TEST(McAnalysis, NoTriggersMeansNormalOnly) {
  const auto apps = fixtures::small_mixed_apps();
  const auto system = harden(apps, HardeningPlan(apps.task_count()), 2);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const auto result =
      analysis.analyze(fixtures::test_arch(2), system, {false, false});
  EXPECT_EQ(result.scenario_count, 0u);
  for (std::size_t i = 0; i < result.wcrt.size(); ++i)
    EXPECT_EQ(result.wcrt[i], result.normal.windows[i].max_finish);
  EXPECT_TRUE(result.schedulable());
}

TEST(McAnalysis, OneScenarioPerTrigger) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 1;
  plan[1].technique = Technique::kReexecution;
  plan[1].reexecutions = 1;
  const auto arch = fixtures::test_arch(3);
  auto system = harden(apps, plan, 3);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  auto result = analysis.analyze(arch, system, {false, true});
  EXPECT_EQ(result.scenario_count, 2u);

  // Adding a passive replication adds one more trigger (its standby).
  plan[2] = {};
  plan[2].technique = Technique::kPassiveReplication;
  plan[2].replica_pes = {ProcessorId{0}, ProcessorId{1}, ProcessorId{2}};
  plan[2].voter_pe = ProcessorId{0};
  system = harden(apps, plan, 3);
  result = analysis.analyze(arch, system, {false, true});
  EXPECT_EQ(result.scenario_count, 3u);
}

TEST(McAnalysis, WcrtCoversNormalState) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 2;
  const auto system = harden(apps, plan, 2);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const auto result =
      analysis.analyze(fixtures::test_arch(2), system, {false, false});
  for (std::size_t i = 0; i < result.wcrt.size(); ++i)
    EXPECT_GE(result.wcrt[i], result.normal.windows[i].max_finish);
}

TEST(McAnalysis, FaultInflatesTriggerTaskBound) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan none(apps.task_count());
  HardeningPlan reexec(apps.task_count());
  reexec[0].technique = Technique::kReexecution;
  reexec[0].reexecutions = 2;
  const auto arch = fixtures::test_arch(2);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const auto base =
      analysis.analyze(arch, harden(apps, none, 2), {false, false});
  const auto hardened =
      analysis.analyze(arch, harden(apps, reexec, 2), {false, false});
  // Re-executions make the worst case strictly worse for the trigger task.
  EXPECT_GT(hardened.wcrt[0], base.wcrt[0]);
}

TEST(McAnalysis, NaiveIsAtLeastAsPessimisticAsProposed) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 1;
  plan[1].technique = Technique::kReexecution;
  plan[1].reexecutions = 1;
  const auto arch = fixtures::test_arch(2);
  const auto system = harden(apps, plan, 2);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const DropSet drop{false, true};
  const auto proposed =
      analysis.analyze(arch, system, drop, McAnalysis::Mode::kProposed);
  const auto naive =
      analysis.analyze(arch, system, drop, McAnalysis::Mode::kNaive);
  for (std::uint32_t g = 0; g < system.apps.graph_count(); ++g) {
    const model::GraphId id{g};
    EXPECT_GE(naive.graph_wcrt(system.apps, id),
              proposed.graph_wcrt(system.apps, id))
        << "graph " << g;
  }
}

TEST(McAnalysis, DroppingRescuesOverloadedSystem) {
  // One PE; critical graph + droppable load that only fits while no fault
  // occurs.  With re-execution of the critical tasks, keeping the droppable
  // graph makes the critical state unschedulable; dropping it rescues.
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("crit", 2, 150, 200, 1000, false, 1e-6));
  graphs.push_back(
      fixtures::chain_graph("load", 2, 150, 150, 1000, true, 1.0));
  const model::ApplicationSet apps{std::move(graphs)};
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 1;
  plan[1].technique = Technique::kReexecution;
  plan[1].reexecutions = 1;
  const auto arch = fixtures::test_arch(1);
  const auto system = harden(apps, plan, 1);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);

  const auto keeping = analysis.analyze(arch, system, {false, false});
  const auto dropping = analysis.analyze(arch, system, {false, true});
  EXPECT_TRUE(keeping.normal_schedulable);
  EXPECT_FALSE(keeping.critical_schedulable);
  EXPECT_TRUE(dropping.normal_schedulable);
  EXPECT_TRUE(dropping.critical_schedulable);
}

TEST(McAnalysis, TasksFinishedBeforeTriggerKeepNominalBounds) {
  // Chain a->b on one PE, re-executable b (trigger).  An unrelated earlier
  // task cannot be pushed by b's fault if it always completes before b can
  // start; its WCRT must equal the normal-state bound.
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("early", 1, 10, 20, 1000, false, 1e-6));
  graphs.push_back(
      fixtures::chain_graph("late", 2, 400, 450, 1000, false, 1e-6));
  const model::ApplicationSet apps{std::move(graphs)};
  HardeningPlan plan(apps.task_count());
  // Harden the *second* task of "late": it cannot start before 400.
  plan[2].technique = Technique::kReexecution;
  plan[2].reexecutions = 1;
  const auto arch = fixtures::test_arch(1);
  const auto system = harden(apps, plan, 1);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const auto result = analysis.analyze(arch, system, {false, false});
  // "early" outranks (shorter... same period; graph order) — in any case it
  // completes long before task late#1 can start, so its WCRT bound stays at
  // the normal-state value.
  EXPECT_EQ(result.wcrt[0], result.normal.windows[0].max_finish);
}

TEST(McAnalysis, DroppedGraphBoundsAreNotGuaranteed) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 1;
  const auto arch = fixtures::test_arch(1);
  const auto system = harden(apps, plan, 1);
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const auto result = analysis.analyze(arch, system, {false, true});
  // The schedulability verdict ignores the dropped graph even if its own
  // bound exceeds its deadline; the critical graph decides.
  EXPECT_TRUE(result.schedulable());
}

// ---- Saturation probe ----------------------------------------------------
//
// The last scenario of the similarity order is solved first, alone.  When
// its bound reaches the Naive pass at every task, no other scenario can
// change max(normal, min(S, Naive)), and they are skipped.  Either way the
// result is exactly the plain Algorithm 1's, solve count included.

/// One analysis with the skip and backend-solve counts it added, checked
/// against the plain Algorithm 1.
struct CountedRun {
  core::McAnalysisResult result;
  std::uint64_t skips = 0;
  std::uint64_t solves = 0;
};

CountedRun analyze_counted(const model::Architecture& arch,
                           const hardening::HardenedSystem& system,
                           const DropSet& drop) {
  const sched::HolisticAnalysis backend;
  const McAnalysis analysis(backend);
  const obs::MetricsSnapshot before = obs::snapshot();
  CountedRun run{analysis.analyze(arch, system, drop)};
  const obs::MetricsSnapshot after = obs::snapshot();
  run.skips = after.value_of("analysis.saturation_skips") -
              before.value_of("analysis.saturation_skips");
  run.solves = after.value_of("sched.solves") - before.value_of("sched.solves");
  const auto reference = oracle::mc_analyze(backend, arch, system, drop);
  fixtures::expect_same_mc_result(reference, run.result);
  EXPECT_EQ(reference.scenario_solves, run.result.scenario_solves);
  return run;
}

/// A plan re-executing the first `hardened` tasks of `apps` (flat order)
/// once.
HardeningPlan reexecute_first(const model::ApplicationSet& apps,
                              std::size_t hardened) {
  HardeningPlan plan(apps.task_count());
  for (std::size_t i = 0; i < hardened; ++i) {
    plan[i].technique = Technique::kReexecution;
    plan[i].reexecutions = 1;
  }
  return plan;
}

TEST(McAnalysisProbe, SaturatedProbeSkipsTheOtherScenarios) {
  // A chain t0 -> t1 -> t2 on one PE, nothing dropped, so the Naive bounds
  // are the all-critical template.  t0 always finishes before t2 can start
  // (2 x BCET > WCET), so t2's scenario runs t0 at its nominal bounds; the
  // scenarios of t0 and t1 edit nothing and are the template itself.  The
  // template sorts last, and solving it repeats the Naive pass: the probe
  // saturates and t2's scenario is never solved.
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("crit", 3, 60, 100, 1000, false, 1e-6));
  const model::ApplicationSet apps{std::move(graphs)};
  const auto system = harden(apps, reexecute_first(apps, 3), 1);
  const CountedRun run =
      analyze_counted(fixtures::test_arch(1), system, {false});
  EXPECT_EQ(run.result.scenario_count, 3u);
  ASSERT_EQ(run.result.scenario_solves, 4u);  // normal, Naive, 2 unique
  EXPECT_EQ(run.skips, 1u);                   // unique - 1
  EXPECT_EQ(run.solves, 3u);                  // normal, Naive, probe
}

TEST(McAnalysisProbe, UnsaturatedProbeSolvesEveryScenario) {
  // Critical chain c0 -> c1 (both re-executed, the only triggers) and
  // dropped chain d0 -> d1, round-robin on two PEs.  d0 is longer than any
  // transition window, so d1 starts only after the transition completed
  // and is certainly dropped ([0, 0]) in both scenarios.  Its scenario
  // bound is then below its Naive one, so the probe cannot saturate and
  // the other scenario (the two differ in d0's release cutoff) is solved
  // too.
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("crit", 2, 60, 100, 1000, false, 1e-6));
  graphs.push_back(fixtures::chain_graph("drop", 2, 300, 300, 1000, true, 1.0));
  const model::ApplicationSet apps{std::move(graphs)};
  const auto system = harden(apps, reexecute_first(apps, 2), 2);
  const CountedRun run =
      analyze_counted(fixtures::test_arch(2), system, {false, true});
  EXPECT_EQ(run.result.scenario_count, 2u);
  ASSERT_EQ(run.result.scenario_solves, 4u);  // normal, Naive, 2 unique
  EXPECT_EQ(run.skips, 0u);
  EXPECT_EQ(run.solves, 4u);
}

}  // namespace
