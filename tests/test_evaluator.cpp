#include "ftmc/core/evaluator.hpp"

#include <gtest/gtest.h>

#include "ftmc/sched/holistic.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::Candidate;
using core::Evaluator;
using hardening::Technique;
using model::ProcessorId;

struct EvalRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
  Evaluator evaluator{arch, apps, backend};
};

TEST(Evaluator, FeasiblePlainCandidate) {
  EvalRig rig;
  const Candidate candidate =
      fixtures::plain_candidate(rig.arch, rig.apps);
  const auto evaluation = rig.evaluator.evaluate(candidate);
  EXPECT_TRUE(evaluation.mapping_valid);
  EXPECT_TRUE(evaluation.reliability_ok);
  EXPECT_TRUE(evaluation.normal_schedulable);
  EXPECT_TRUE(evaluation.critical_schedulable);
  EXPECT_TRUE(evaluation.feasible());
  EXPECT_LT(evaluation.power, 1000.0);  // no penalty applied
  EXPECT_DOUBLE_EQ(evaluation.service, 2.0);
  EXPECT_EQ(evaluation.graph_wcrt.size(), 2u);
}

TEST(Evaluator, UnallocatedPeInvalidatesMapping) {
  EvalRig rig;
  Candidate candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  candidate.allocation = {true, false};
  candidate.base_mapping.back() = ProcessorId{1};
  const auto evaluation = rig.evaluator.evaluate(candidate);
  EXPECT_FALSE(evaluation.mapping_valid);
  EXPECT_FALSE(evaluation.feasible());
  EXPECT_GE(evaluation.power, 1.0e9);  // penalized
}

TEST(Evaluator, ReplicaOnUnallocatedPeInvalidates) {
  EvalRig rig;
  Candidate candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  candidate.allocation = {true, false};
  for (auto& pe : candidate.base_mapping) pe = ProcessorId{0};
  candidate.plan[0].technique = Technique::kActiveReplication;
  candidate.plan[0].replica_pes = {ProcessorId{0}, ProcessorId{1}};
  candidate.plan[0].voter_pe = ProcessorId{0};
  const auto evaluation = rig.evaluator.evaluate(candidate);
  EXPECT_FALSE(evaluation.mapping_valid);
}

TEST(Evaluator, ReliabilityViolationFlagged) {
  const auto arch = fixtures::test_arch(1);
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("tight", 2, 50, 100, 1000, false, 1e-13));
  const model::ApplicationSet apps{std::move(graphs)};
  const sched::HolisticAnalysis backend;
  const Evaluator evaluator(arch, apps, backend);

  Candidate candidate = fixtures::plain_candidate(arch, apps);
  auto evaluation = evaluator.evaluate(candidate);
  EXPECT_FALSE(evaluation.reliability_ok);
  EXPECT_FALSE(evaluation.feasible());

  for (auto& decision : candidate.plan) {
    decision.technique = Technique::kReexecution;
    decision.reexecutions = 2;
  }
  evaluation = evaluator.evaluate(candidate);
  EXPECT_TRUE(evaluation.reliability_ok);
  EXPECT_TRUE(evaluation.feasible());
}

TEST(Evaluator, StructuralErrorsThrow) {
  EvalRig rig;
  Candidate candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  candidate.allocation.pop_back();
  EXPECT_THROW(rig.evaluator.evaluate(candidate), std::invalid_argument);

  candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  candidate.drop[0] = true;  // graph 0 is critical
  EXPECT_FALSE(rig.evaluator.structural_error(candidate).empty());

  candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  candidate.allocation = {false, false};
  EXPECT_FALSE(rig.evaluator.structural_error(candidate).empty());

  candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  candidate.base_mapping[0] = ProcessorId{5};
  EXPECT_FALSE(rig.evaluator.structural_error(candidate).empty());

  candidate = fixtures::plain_candidate(rig.arch, rig.apps);
  EXPECT_TRUE(rig.evaluator.structural_error(candidate).empty());
}

TEST(Evaluator, OverloadIsInfeasible) {
  const auto arch = fixtures::test_arch(1);
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("heavy", 3, 400, 500, 1000, false, 1e-6));
  const model::ApplicationSet apps{std::move(graphs)};
  const sched::HolisticAnalysis backend;
  const Evaluator evaluator(arch, apps, backend);
  const auto evaluation =
      evaluator.evaluate(fixtures::plain_candidate(arch, apps));
  EXPECT_FALSE(evaluation.normal_schedulable);
  EXPECT_FALSE(evaluation.feasible());
}

TEST(Evaluator, DroppingTradesServiceForFeasibility) {
  // Same construction as the McAnalysis rescue test, via the evaluator.
  const auto arch = fixtures::test_arch(1);
  std::vector<model::TaskGraph> graphs;
  graphs.push_back(
      fixtures::chain_graph("crit", 2, 150, 200, 1000, false, 1e-6));
  graphs.push_back(
      fixtures::chain_graph("load", 2, 150, 150, 1000, true, 1.0));
  const model::ApplicationSet apps{std::move(graphs)};
  const sched::HolisticAnalysis backend;
  const Evaluator evaluator(arch, apps, backend);

  Candidate candidate = fixtures::plain_candidate(arch, apps);
  for (std::size_t flat : {0u, 1u}) {
    candidate.plan[flat].technique = Technique::kReexecution;
    candidate.plan[flat].reexecutions = 1;
  }
  auto evaluation = evaluator.evaluate(candidate);
  EXPECT_FALSE(evaluation.feasible());
  EXPECT_DOUBLE_EQ(evaluation.service, 1.0);

  candidate.drop[1] = true;
  evaluation = evaluator.evaluate(candidate);
  EXPECT_TRUE(evaluation.feasible());
  EXPECT_DOUBLE_EQ(evaluation.service, 0.0);
}

}  // namespace
