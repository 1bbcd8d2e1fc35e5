#include "ftmc/core/objectives.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::Allocation;
using hardening::HardeningPlan;
using hardening::Technique;
using model::ProcessorId;

hardening::HardenedSystem harden(const model::ApplicationSet& apps,
                                 const HardeningPlan& plan,
                                 const std::vector<ProcessorId>& mapping,
                                 std::size_t pes) {
  return hardening::apply_hardening(apps, plan, mapping, pes);
}

TEST(Utilization, PlainTasksUseWcetOverPeriod) {
  const auto arch = fixtures::test_arch(2);
  const auto apps = fixtures::small_mixed_apps(/*period=*/1000);
  // crit: 2x wcet 100; drop: 2x wcet 60.  All on PE 0.
  const std::vector<ProcessorId> mapping(apps.task_count(), ProcessorId{0});
  const auto system = harden(apps, HardeningPlan(apps.task_count()), mapping, 2);
  const auto utilization = core::expected_utilization(arch, system);
  EXPECT_NEAR(utilization[0], (100.0 + 100.0 + 60.0 + 60.0) / 1000.0, 1e-12);
  EXPECT_EQ(utilization[1], 0.0);
}

TEST(Utilization, ReexecutionAddsExpectedAttempts) {
  const auto arch = fixtures::test_arch(1);
  const auto apps = fixtures::small_mixed_apps(1000);
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kReexecution;
  plan[0].reexecutions = 2;
  const std::vector<ProcessorId> mapping(apps.task_count(), ProcessorId{0});
  const auto base =
      core::expected_utilization(arch, harden(apps, HardeningPlan(apps.task_count()), mapping, 1));
  const auto hardened =
      core::expected_utilization(arch, harden(apps, plan, mapping, 1));
  // dt = 2 is charged every attempt; expected extra attempts are tiny
  // (pf ~ 1e-6) but the detection overhead alone raises utilization.
  EXPECT_GT(hardened[0], base[0]);
  const double pf = hardening::execution_failure_probability(
      arch.processor(ProcessorId{0}), 102);
  const double expected =
      base[0] - 100.0 / 1000.0 +
      102.0 * hardening::expected_reexecution_count(pf, 2) / 1000.0;
  EXPECT_NEAR(hardened[0], expected, 1e-9);
}

TEST(Utilization, ActiveReplicasChargeEveryPe) {
  const auto arch = fixtures::test_arch(3);
  const auto apps = fixtures::small_mixed_apps(1000);
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kActiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}, ProcessorId{2}};
  plan[0].voter_pe = ProcessorId{1};
  std::vector<ProcessorId> mapping(apps.task_count(), ProcessorId{0});
  const auto utilization =
      core::expected_utilization(arch, harden(apps, plan, mapping, 3));
  // Replica of task 0 (wcet 100) on each PE; voter (ve 3) on PE 1; the
  // remaining tasks (wcet 100 + 60 + 60) on PE 0.
  EXPECT_NEAR(utilization[0], (100.0 + 100.0 + 60.0 + 60.0) / 1000.0, 1e-12);
  EXPECT_NEAR(utilization[1], (100.0 + 3.0) / 1000.0, 1e-12);
  EXPECT_NEAR(utilization[2], 100.0 / 1000.0, 1e-12);
}

TEST(Utilization, PassiveStandbyChargedByActivationProbability) {
  const auto arch = fixtures::test_arch(3);
  const auto apps = fixtures::small_mixed_apps(1000);
  HardeningPlan plan(apps.task_count());
  plan[0].technique = Technique::kPassiveReplication;
  plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}, ProcessorId{2}};
  plan[0].voter_pe = ProcessorId{0};
  std::vector<ProcessorId> mapping(apps.task_count(), ProcessorId{0});
  const auto utilization =
      core::expected_utilization(arch, harden(apps, plan, mapping, 3));
  const double pf = hardening::execution_failure_probability(
      arch.processor(ProcessorId{0}), 100);
  const double activation = hardening::standby_activation_probability(pf, pf);
  // PE 2 hosts only the standby.
  EXPECT_NEAR(utilization[2], activation * 100.0 / 1000.0, 1e-15);
  EXPECT_GT(utilization[2], 0.0);
  EXPECT_LT(utilization[2], 100.0 / 1000.0);
}

TEST(Power, SumsAllocatedPesOnly) {
  const auto arch = fixtures::test_arch(3);  // stat 10, dyn 40 each
  const auto apps = fixtures::small_mixed_apps(1000);
  const std::vector<ProcessorId> mapping(apps.task_count(), ProcessorId{0});
  const auto system =
      harden(apps, HardeningPlan(apps.task_count()), mapping, 3);
  const double u0 = (100.0 + 100.0 + 60.0 + 60.0) / 1000.0;

  Allocation alloc{true, false, false};
  EXPECT_NEAR(core::expected_power(arch, system, alloc), 10.0 + 40.0 * u0,
              1e-9);
  // Allocating an idle PE adds only its static power.
  alloc = {true, true, false};
  EXPECT_NEAR(core::expected_power(arch, system, alloc), 20.0 + 40.0 * u0,
              1e-9);
}

TEST(Power, RejectsUnallocatedUse) {
  const auto arch = fixtures::test_arch(2);
  const auto apps = fixtures::small_mixed_apps(1000);
  const std::vector<ProcessorId> mapping(apps.task_count(), ProcessorId{1});
  const auto system =
      harden(apps, HardeningPlan(apps.task_count()), mapping, 2);
  EXPECT_THROW(core::expected_power(arch, system, Allocation{true, false}),
               std::invalid_argument);
  EXPECT_THROW(core::expected_power(arch, system, Allocation{true}),
               std::invalid_argument);
}

TEST(Service, SumsAliveDroppableGraphs) {
  const auto apps = fixtures::small_mixed_apps();  // drop graph sv = 2
  EXPECT_DOUBLE_EQ(core::service_value(apps, {false, false}), 2.0);
  EXPECT_DOUBLE_EQ(core::service_value(apps, {false, true}), 0.0);
}

TEST(Service, IgnoresCriticalGraphs) {
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(fixtures::chain_graph("c", 1, 1, 2, 10, false, 1e-6));
  graphs.push_back(fixtures::chain_graph("d1", 1, 1, 2, 10, true, 3.0));
  graphs.push_back(fixtures::chain_graph("d2", 1, 1, 2, 10, true, 5.0));
  const model::ApplicationSet apps{std::move(graphs)};
  EXPECT_DOUBLE_EQ(core::service_value(apps, {false, false, false}), 8.0);
  EXPECT_DOUBLE_EQ(core::service_value(apps, {false, true, false}), 5.0);
  EXPECT_DOUBLE_EQ(core::service_value(apps, {false, true, true}), 0.0);
}

TEST(Service, SizeValidation) {
  const auto apps = fixtures::small_mixed_apps();
  EXPECT_THROW(core::service_value(apps, {false}), std::invalid_argument);
}

}  // namespace
