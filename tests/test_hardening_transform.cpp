#include <gtest/gtest.h>

#include <algorithm>

#include "ftmc/core/evaluator.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/sched/holistic.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using hardening::HardenedSystem;
using hardening::HardeningPlan;
using hardening::TaskHardening;
using hardening::TaskRole;
using hardening::Technique;
using model::ProcessorId;
using model::TaskRef;

std::vector<ProcessorId> round_robin(const model::ApplicationSet& apps,
                                     std::size_t pes) {
  std::vector<ProcessorId> mapping(apps.task_count());
  for (std::size_t i = 0; i < mapping.size(); ++i)
    mapping[i] = ProcessorId{static_cast<std::uint32_t>(i % pes)};
  return mapping;
}

TEST(Transform, NoHardeningIsIdentity) {
  const auto apps = fixtures::small_mixed_apps();
  const HardeningPlan plan(apps.task_count());
  const HardenedSystem system =
      hardening::apply_hardening(apps, plan, round_robin(apps, 2), 2);
  EXPECT_EQ(system.apps.task_count(), apps.task_count());
  EXPECT_EQ(system.apps.graph_count(), apps.graph_count());
  for (std::size_t i = 0; i < system.apps.task_count(); ++i) {
    EXPECT_EQ(system.info[i].role, TaskRole::kOriginal);
    EXPECT_EQ(system.info[i].reexecutions, 0);
    EXPECT_FALSE(system.info[i].triggers_critical_state);
    EXPECT_EQ(system.apps.task(system.apps.task_ref(i)).name,
              apps.task(apps.task_ref(i)).name);
  }
  // Channel structure preserved.
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g)
    EXPECT_EQ(system.apps.graph(model::GraphId{g}).channels().size(),
              apps.graph(model::GraphId{g}).channels().size());
}

TEST(Transform, ReexecutionKeepsTopologyAndAnnotates) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 2;
  const HardenedSystem system =
      hardening::apply_hardening(apps, plan, round_robin(apps, 2), 2);
  EXPECT_EQ(system.apps.task_count(), apps.task_count());
  EXPECT_EQ(system.info[0].reexecutions, 2);
  EXPECT_TRUE(system.info[0].pays_detection);
  EXPECT_TRUE(system.info[0].triggers_critical_state);
  EXPECT_EQ(system.info[1].reexecutions, 0);
}

TEST(Transform, ActiveReplicationAddsReplicasAndVoter) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}, ProcessorId{2}};
  plan[0].voter_pe = ProcessorId{1};
  const HardenedSystem system =
      hardening::apply_hardening(apps, plan, round_robin(apps, 3), 3);

  // crit graph: 2 tasks -> 3 replicas + voter + successor = 5.
  const model::TaskGraph& graph = system.apps.graph(model::GraphId{0});
  EXPECT_EQ(graph.task_count(), 5u);

  std::size_t replicas = 0, voters = 0, originals = 0;
  for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
    const auto& info = system.info[system.apps.flat_index({0, v})];
    switch (info.role) {
      case TaskRole::kActiveReplica: {
        ++replicas;
        EXPECT_EQ(info.origin, (TaskRef{0, 0}));
        EXPECT_FALSE(info.triggers_critical_state);
        break;
      }
      case TaskRole::kVoter: {
        ++voters;
        const std::size_t flat = system.apps.flat_index({0, v});
        EXPECT_EQ(system.mapping.processor_of_flat(flat), ProcessorId{1});
        // Voter executes the voting overhead.
        EXPECT_EQ(graph.task(v).wcet, apps.task(TaskRef{0, 0}).voting_overhead);
        break;
      }
      case TaskRole::kOriginal:
        ++originals;
        break;
      default:
        FAIL() << "unexpected role";
    }
  }
  EXPECT_EQ(replicas, 3u);
  EXPECT_EQ(voters, 1u);
  EXPECT_EQ(originals, 1u);

  // Voter feeds the former successor; replicas feed the voter.
  std::uint32_t voter = 0, successor = 0;
  for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
    const auto& info = system.info[system.apps.flat_index({0, v})];
    if (info.role == TaskRole::kVoter) voter = v;
    if (info.role == TaskRole::kOriginal) successor = v;
  }
  EXPECT_EQ(fixtures::predecessors(graph, voter).size(), 3u);
  EXPECT_EQ(fixtures::predecessors(graph, successor),
            std::vector<std::uint32_t>{voter});
}

TEST(Transform, ReplicaMappingFollowsPlan) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{2}, ProcessorId{0}};
  plan[0].voter_pe = ProcessorId{1};
  const HardenedSystem system =
      hardening::apply_hardening(apps, plan, round_robin(apps, 3), 3);
  const model::TaskGraph& graph = system.apps.graph(model::GraphId{0});
  std::vector<ProcessorId> replica_pes;
  for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
    const std::size_t flat = system.apps.flat_index({0, v});
    if (system.info[flat].role == TaskRole::kActiveReplica)
      replica_pes.push_back(system.mapping.processor_of_flat(flat));
  }
  EXPECT_EQ(replica_pes, (std::vector<ProcessorId>{ProcessorId{2},
                                                   ProcessorId{0}}));
}

TEST(Transform, PassiveReplicationAddsControlEdgesAndStandby) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kPassiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}, ProcessorId{2}};
  plan[0].voter_pe = ProcessorId{0};
  const HardenedSystem system =
      hardening::apply_hardening(apps, plan, round_robin(apps, 3), 3);
  const model::TaskGraph& graph = system.apps.graph(model::GraphId{0});
  EXPECT_EQ(graph.task_count(), 5u);

  std::uint32_t standby = UINT32_MAX;
  std::size_t primaries = 0;
  for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
    const auto& info = system.info[system.apps.flat_index({0, v})];
    if (info.role == TaskRole::kPassiveReplica) {
      standby = v;
      EXPECT_TRUE(info.triggers_critical_state);
    }
    if (info.role == TaskRole::kActiveReplica) ++primaries;
  }
  ASSERT_NE(standby, UINT32_MAX);
  EXPECT_EQ(primaries, 2u);
  // The standby waits for both primaries (control edges).
  EXPECT_EQ(fixtures::predecessors(graph, standby).size(), 2u);
}

TEST(Transform, ReplicatedMiddleTaskFansInputsToAllReplicas) {
  // chain of 3; replicate the middle task.
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(fixtures::chain_graph("g", 3, 10, 20, 1000, false, 1e-6));
  const model::ApplicationSet apps{std::move(graphs)};
  HardeningPlan plan(apps.task_count());
  plan[1].technique = Technique::kActiveReplication;
  plan[1].replica_pes = {ProcessorId{0}, ProcessorId{1}};
  plan[1].voter_pe = ProcessorId{0};
  const HardenedSystem system = hardening::apply_hardening(
      apps, plan, round_robin(apps, 2), 2);
  const model::TaskGraph& graph = system.apps.graph(model::GraphId{0});
  // Producer must feed both replicas.
  std::uint32_t producer = UINT32_MAX;
  for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
    const auto& info = system.info[system.apps.flat_index({0, v})];
    if (info.role == TaskRole::kOriginal && info.origin == TaskRef{0, 0})
      producer = v;
  }
  ASSERT_NE(producer, UINT32_MAX);
  EXPECT_EQ(fixtures::successors(graph, producer).size(), 2u);
}

TEST(Transform, ValidationRejectsBadPlans) {
  const auto apps = fixtures::small_mixed_apps();
  const auto mapping = round_robin(apps, 2);

  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 0;  // must be >= 1
  EXPECT_THROW(hardening::apply_hardening(apps, plan, mapping, 2),
               std::invalid_argument);

  plan[0] = {};
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{0}};  // needs >= 2
  plan[0].voter_pe = ProcessorId{0};
  EXPECT_THROW(hardening::apply_hardening(apps, plan, mapping, 2),
               std::invalid_argument);

  plan[0] = {};
  plan[0].technique = Technique::kPassiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}};  // needs exactly 3
  plan[0].voter_pe = ProcessorId{0};
  EXPECT_THROW(hardening::apply_hardening(apps, plan, mapping, 2),
               std::invalid_argument);

  plan[0] = {};
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{9}};  // PE range
  plan[0].voter_pe = ProcessorId{0};
  EXPECT_THROW(hardening::apply_hardening(apps, plan, mapping, 2),
               std::invalid_argument);

  // Plan size mismatch.
  EXPECT_THROW(hardening::apply_hardening(apps, HardeningPlan(1), mapping, 2),
               std::invalid_argument);
}

// The message names the offending task and the rule it broke, word for
// word — Evaluator::structural_error and the serve error replies pass it on.
TEST(Transform, ValidationErrorNamesTaskAndRule) {
  const auto apps = fixtures::small_mixed_apps();
  const auto message = [&](const TaskHardening& decision) {
    HardeningPlan plan(apps.task_count());
    plan[1] = decision;
    try {
      hardening::validate_plan(apps, plan, 2);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  TaskHardening reexecution;
  reexecution.technique = Technique::kReexecution;
  reexecution.reexecutions = 9;
  EXPECT_EQ(message(reexecution),
            "task 'crit1': re-execution count must be in [1,8]");
  TaskHardening passive;
  passive.technique = Technique::kPassiveReplication;
  passive.replica_pes = {ProcessorId{0}, ProcessorId{1}};
  EXPECT_EQ(message(passive),
            "task 'crit1': passive replication needs exactly 3 replicas "
            "(2 primaries + 1 standby)");
}

TEST(Transform, ReplicationNeedsVotingOverhead) {
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(fixtures::chain_graph("g", 2, 10, 20, 1000, false, 1e-6,
                                        /*bytes=*/0, /*ve=*/0));
  const model::ApplicationSet apps{std::move(graphs)};
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}};
  EXPECT_THROW(
      hardening::apply_hardening(apps, plan, round_robin(apps, 2), 2),
      std::invalid_argument);
}

TEST(Transform, MappingMustMatchAndBeInRange) {
  const auto apps = fixtures::small_mixed_apps();
  const HardeningPlan plan(apps.task_count());
  EXPECT_THROW(hardening::apply_hardening(apps, plan, {}, 2),
               std::invalid_argument);
  auto mapping = round_robin(apps, 2);
  mapping[0] = ProcessorId{7};
  EXPECT_THROW(hardening::apply_hardening(apps, plan, mapping, 2),
               std::invalid_argument);
}

TEST(Transform, GraphAttributesSurviveTransform) {
  const auto apps = fixtures::small_mixed_apps();
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}};
  plan[0].voter_pe = ProcessorId{0};
  const HardenedSystem system =
      hardening::apply_hardening(apps, plan, round_robin(apps, 2), 2);
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const auto& before = apps.graph(model::GraphId{g});
    const auto& after = system.apps.graph(model::GraphId{g});
    EXPECT_EQ(after.name(), before.name());
    EXPECT_EQ(after.period(), before.period());
    EXPECT_EQ(after.droppable(), before.droppable());
    EXPECT_EQ(after.service_value(), before.service_value());
  }
}

// A derived name (`x#r0`, `x#vote`) can clash with a task of the same
// graph only in a programmatic graph: the text format strips '#'.  The
// materialized T' needs unique names, so apply_hardening rejects such a
// plan; evaluation builds no names, so it evaluates the candidate exactly
// as if the clashing task had any other name.
TEST(Transform, DerivedNameClashFailsMaterializeNotEvaluation) {
  const auto make_apps = [](const std::string& second) {
    model::TaskGraphBuilder builder("g");
    const auto x = builder.add_task("x", 10, 20, 3, 2);
    const auto y = builder.add_task(second, 10, 20, 3, 2);
    builder.connect(x, y, 4).period(1000).reliability(1e-6);
    std::vector<model::TaskGraph> graphs;
    graphs.push_back(builder.build());
    return model::ApplicationSet(std::move(graphs));
  };
  const auto clashing = make_apps("x#r0");
  const auto renamed = make_apps("y");
  const auto arch = fixtures::test_arch(2);
  core::Candidate candidate = fixtures::plain_candidate(arch, clashing);
  candidate.plan[0].technique = Technique::kActiveReplication;
  candidate.plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}};
  candidate.plan[0].voter_pe = ProcessorId{1};

  EXPECT_THROW(hardening::apply_hardening(clashing, candidate.plan,
                                          candidate.base_mapping, 2),
               std::invalid_argument);
  const sched::HolisticAnalysis backend;
  const core::Evaluation evaluation =
      core::Evaluator(arch, clashing, backend).evaluate_uncached(candidate);
  const core::Evaluation expected =
      core::Evaluator(arch, renamed, backend).evaluate_uncached(candidate);
  EXPECT_EQ(evaluation.feasible(), expected.feasible());
  EXPECT_EQ(evaluation.power, expected.power);
  EXPECT_EQ(evaluation.scenario_count, expected.scenario_count);
  EXPECT_EQ(evaluation.graph_wcrt, expected.graph_wcrt);
}

TEST(Transform, ToStringCoverage) {
  EXPECT_STREQ(hardening::to_string(Technique::kNone), "none");
  EXPECT_STREQ(hardening::to_string(Technique::kReexecution),
               "re-execution");
  EXPECT_STREQ(hardening::to_string(Technique::kActiveReplication),
               "active-replication");
  EXPECT_STREQ(hardening::to_string(Technique::kPassiveReplication),
               "passive-replication");
}

}  // namespace
