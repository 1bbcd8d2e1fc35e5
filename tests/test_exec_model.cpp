#include "ftmc/core/exec_model.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::critical_bounds;
using core::critical_wcet;
using core::nominal_bounds;
using hardening::HardenedTaskInfo;
using hardening::TaskRole;

const model::Task kTask{"t", 40, 100, 7, 5};

TEST(ExecModel, PlainOriginal) {
  HardenedTaskInfo info;  // defaults: original, no hardening
  EXPECT_EQ(critical_wcet(kTask, info), 100);
  EXPECT_EQ(nominal_bounds(kTask, info).bcet, 40);
  EXPECT_EQ(nominal_bounds(kTask, info).wcet, 100);
  EXPECT_EQ(critical_bounds(kTask, info).wcet, 100);
}

TEST(ExecModel, ReexecutableFollowsEq1) {
  HardenedTaskInfo info;
  info.reexecutions = 2;
  info.pays_detection = true;
  info.triggers_critical_state = true;
  // Nominal: one attempt incl. detection.
  EXPECT_EQ(nominal_bounds(kTask, info).bcet, 45);
  EXPECT_EQ(nominal_bounds(kTask, info).wcet, 105);
  // Eq. (1): (wcet + dt) * (k + 1).
  EXPECT_EQ(critical_wcet(kTask, info), 105 * 3);
  EXPECT_EQ(critical_bounds(kTask, info).bcet, 45);
  // The trigger of a transition takes the same critical bounds.
  EXPECT_EQ(critical_bounds(kTask, info).wcet, 315);
}

TEST(ExecModel, PassiveReplicaIsZeroInNormalState) {
  HardenedTaskInfo info;
  info.role = TaskRole::kPassiveReplica;
  info.triggers_critical_state = true;
  EXPECT_EQ(nominal_bounds(kTask, info).bcet, 0);
  EXPECT_EQ(nominal_bounds(kTask, info).wcet, 0);
  // Critical: may or may not be activated -> [0, wcet].
  EXPECT_EQ(critical_bounds(kTask, info).bcet, 0);
  EXPECT_EQ(critical_bounds(kTask, info).wcet, 100);
}

TEST(ExecModel, ActiveReplicaBehavesLikePlainTask) {
  HardenedTaskInfo info;
  info.role = TaskRole::kActiveReplica;
  EXPECT_EQ(nominal_bounds(kTask, info).bcet, 40);
  EXPECT_EQ(nominal_bounds(kTask, info).wcet, 100);
  EXPECT_EQ(critical_bounds(kTask, info).wcet, 100);
}

TEST(ExecModel, VoterBounds) {
  // The transform builds voters with bcet = wcet = ve.
  model::Task voter{"v#vote", 7, 7, 0, 0};
  HardenedTaskInfo info;
  info.role = TaskRole::kVoter;
  EXPECT_EQ(nominal_bounds(voter, info).bcet, 7);
  EXPECT_EQ(nominal_bounds(voter, info).wcet, 7);
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
