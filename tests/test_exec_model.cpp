#include "ftmc/core/exec_model.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::critical_bounds;
using core::nominal_bounds;
using hardening::TaskHardening;
using hardening::Technique;
using model::ProcessorId;

/// One task t = [40, 100] with ve = 7 and dt = 5, hardened by `decision`
/// on three PEs.  The set is static: a hardened view borrows it.
hardening::HardenedSystem harden(const TaskHardening& decision) {
  static const model::ApplicationSet apps = [] {
    model::TaskGraphBuilder builder("g");
    builder.add_task("t", 40, 100, 7, 5);
    builder.period(1000).reliability(1e-6);
    std::vector<model::TaskGraph> graphs;
    graphs.push_back(builder.build());
    return model::ApplicationSet(std::move(graphs));
  }();
  return hardening::apply_hardening(apps, {decision}, {ProcessorId{0}}, 3);
}

TaskHardening replicated(Technique technique, std::size_t replicas) {
  TaskHardening decision;
  decision.technique = technique;
  decision.replica_pes.assign(replicas, ProcessorId{1});
  decision.voter_pe = ProcessorId{2};
  return decision;
}

TEST(ExecModel, PlainOriginal) {
  const auto system = harden({});  // defaults: original, no hardening
  EXPECT_EQ(nominal_bounds(system.view, 0).bcet, 40);
  EXPECT_EQ(nominal_bounds(system.view, 0).wcet, 100);
  EXPECT_EQ(critical_bounds(system.view, 0).wcet, 100);
}

TEST(ExecModel, ReexecutableFollowsEq1) {
  const auto system = harden({Technique::kReexecution, 2, {}, {}});
  // Nominal: one attempt incl. detection.
  EXPECT_EQ(nominal_bounds(system.view, 0).bcet, 45);
  EXPECT_EQ(nominal_bounds(system.view, 0).wcet, 105);
  // Eq. (1): (wcet + dt) * (k + 1); the trigger of a transition takes the
  // same critical bounds.
  EXPECT_EQ(critical_bounds(system.view, 0).bcet, 45);
  EXPECT_EQ(critical_bounds(system.view, 0).wcet, 105 * 3);
}

TEST(ExecModel, PassiveReplicaIsZeroInNormalState) {
  const auto system = harden(replicated(Technique::kPassiveReplication, 3));
  const std::size_t standby = 2;  // r0, r1 primaries, r2 the standby
  ASSERT_EQ(system.info[standby].role, hardening::TaskRole::kPassiveReplica);
  EXPECT_EQ(nominal_bounds(system.view, standby).bcet, 0);
  EXPECT_EQ(nominal_bounds(system.view, standby).wcet, 0);
  // Critical: may or may not be activated -> [0, wcet].
  EXPECT_EQ(critical_bounds(system.view, standby).bcet, 0);
  EXPECT_EQ(critical_bounds(system.view, standby).wcet, 100);
}

TEST(ExecModel, ActiveReplicaBehavesLikePlainTask) {
  const auto system = harden(replicated(Technique::kActiveReplication, 2));
  ASSERT_EQ(system.info[0].role, hardening::TaskRole::kActiveReplica);
  EXPECT_EQ(nominal_bounds(system.view, 0).bcet, 40);
  EXPECT_EQ(nominal_bounds(system.view, 0).wcet, 100);
  EXPECT_EQ(critical_bounds(system.view, 0).wcet, 100);
}

TEST(ExecModel, VoterBounds) {
  // The transform builds voters with bcet = wcet = ve.
  const auto system = harden(replicated(Technique::kActiveReplication, 2));
  const std::size_t voter = 2;
  ASSERT_EQ(system.info[voter].role, hardening::TaskRole::kVoter);
  EXPECT_EQ(nominal_bounds(system.view, voter).bcet, 7);
  EXPECT_EQ(nominal_bounds(system.view, voter).wcet, 7);
}

TEST(ExecModel, NominalBoundsOfWholeSystem) {
  const auto apps = fixtures::small_mixed_apps();
  hardening::HardeningPlan plan(apps.task_count());
  plan[0].technique = hardening::Technique::kReexecution;
  plan[0].reexecutions = 1;
  std::vector<model::ProcessorId> mapping(apps.task_count(),
                                          model::ProcessorId{0});
  const auto system = hardening::apply_hardening(apps, plan, mapping, 1);
  const auto bounds = core::nominal_bounds_of(system);
  ASSERT_EQ(bounds.size(), system.apps.task_count());
  // Task 0 (re-executable): bcet/wcet + dt(=2 from helper).
  EXPECT_EQ(bounds[0].bcet, 52);
  EXPECT_EQ(bounds[0].wcet, 102);
  // Task 1 untouched.
  EXPECT_EQ(bounds[1].bcet, 50);
  EXPECT_EQ(bounds[1].wcet, 100);
}

}  // namespace
