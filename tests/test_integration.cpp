// End-to-end scenarios across modules: full DSE on benchmarks, the
// motivational example of Figure 1, and cross-estimator consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sim/simulator.hpp"
#include "ftmc/sim/trace.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;

TEST(Integration, DseOnDtMedFindsFeasibleDesigns) {
  const auto bench = benchmarks::dt_med_benchmark();
  const sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer(bench.arch, bench.apps, backend);
  dse::GaOptions options;
  options.population = 30;
  options.offspring = 30;
  options.generations = 20;
  options.seed = 1;
  const auto result = optimizer.run(options);
  ASSERT_FALSE(result.pareto.empty());
  EXPECT_FALSE(std::isnan(result.best_feasible_power));
  // Every Pareto design satisfies all constraints end to end.
  const core::Evaluator evaluator(bench.arch, bench.apps, backend);
  for (const auto& individual : result.pareto) {
    const auto recheck = evaluator.evaluate(individual.candidate);
    EXPECT_TRUE(recheck.feasible());
    EXPECT_DOUBLE_EQ(recheck.power, individual.evaluation.power);
  }
}

TEST(Integration, MotivationalExampleOfFigure1) {
  // Three applications, two criticality levels (Figure 1): in the fault
  // case the re-execution of A breaks the high-critical deadline unless the
  // low-criticality graph is dropped.
  std::vector<model::TaskGraph> graphs;
  {
    model::TaskGraphBuilder high("high");
    const auto a = high.add_task("A", 100, 100, 5, 10);
    const auto b = high.add_task("B", 100, 100, 5, 10);
    const auto e = high.add_task("E", 120, 120, 5, 10);
    high.connect(a, e, 0).connect(b, e, 0);
    high.period(500).reliability(1e-9);
    graphs.push_back(high.build());
  }
  {
    model::TaskGraphBuilder mid("mid");
    const auto c = mid.add_task("C", 80, 80, 5, 10);
    const auto f = mid.add_task("F", 80, 80, 5, 10);
    mid.connect(c, f, 0);
    mid.period(500).reliability(1e-9);
    graphs.push_back(mid.build());
  }
  {
    model::TaskGraphBuilder low("low");
    const auto g = low.add_task("G", 90, 90, 5, 10);
    const auto h = low.add_task("H", 90, 90, 5, 10);
    const auto i = low.add_task("I", 90, 90, 5, 10);
    low.connect(g, h, 0).connect(h, i, 0);
    low.period(500).droppable(1.0);
    graphs.push_back(low.build());
  }
  const model::ApplicationSet apps{std::move(graphs)};
  const auto arch = fixtures::test_arch(2);

  // A re-executable; everything split over two PEs.
  hardening::HardeningPlan plan(apps.task_count());
  plan[0].technique = hardening::Technique::kReexecution;
  plan[0].reexecutions = 1;
  std::vector<model::ProcessorId> mapping = {
      model::ProcessorId{0}, model::ProcessorId{1}, model::ProcessorId{0},
      model::ProcessorId{1}, model::ProcessorId{1}, model::ProcessorId{0},
      model::ProcessorId{0}, model::ProcessorId{1}};
  const auto system = hardening::apply_hardening(apps, plan, mapping, 2);
  const auto priorities = sched::assign_priorities(system.apps);

  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);
  // Keeping everything: the critical state is unschedulable.
  const auto keeping =
      analysis.analyze(arch, system, {false, false, false});
  EXPECT_TRUE(keeping.normal_schedulable);
  EXPECT_FALSE(keeping.critical_schedulable);
  // Dropping the low graph rescues the high-critical deadline.
  const auto dropping =
      analysis.analyze(arch, system, {false, false, true});
  EXPECT_TRUE(dropping.normal_schedulable);
  EXPECT_TRUE(dropping.critical_schedulable);

  // Confirm with a concrete faulty trace: fault in A -> G/H/I dropped and
  // E still meets the 500 deadline.
  const sim::Simulator simulator(arch, system, {false, false, true},
                                 priorities);
  sim::PlannedFaults faults;
  faults.add(sim::AttemptKey{0, 0, 1});
  sim::WcetExecution wcet;
  const auto trace = simulator.run(faults, wcet);
  EXPECT_GE(trace.critical_entry[0], 0);
  EXPECT_LE(trace.graph_response[0], 500);
  EXPECT_FALSE(trace.deadline_miss);
  EXPECT_EQ(trace.graph_response[2], -1);  // low dropped entirely
}

TEST(Integration, GanttRendererProducesPlausibleChart) {
  const auto apps = fixtures::small_mixed_apps();
  const auto arch = fixtures::test_arch(2);
  const hardening::HardeningPlan plan(apps.task_count());
  std::vector<model::ProcessorId> mapping(apps.task_count(),
                                          model::ProcessorId{0});
  mapping[2] = model::ProcessorId{1};
  mapping[3] = model::ProcessorId{1};
  const auto system = hardening::apply_hardening(apps, plan, mapping, 2);
  const sim::Simulator simulator(arch, system, {false, false},
                                 sched::assign_priorities(system.apps));
  sim::NoFaults no_faults;
  sim::WcetExecution wcet;
  const auto trace = simulator.run(no_faults, wcet);
  std::ostringstream out;
  sim::render_gantt(out, arch, system.apps, trace, 400, 10);
  const std::string chart = out.str();
  EXPECT_NE(chart.find("pe0"), std::string::npos);
  EXPECT_NE(chart.find("pe1"), std::string::npos);
  // Busy cells rendered with task initials ('c' for crit0/1, 'd' for drop).
  EXPECT_NE(chart.find('c'), std::string::npos);
  EXPECT_NE(chart.find('d'), std::string::npos);
}

TEST(Integration, ProposedTighterThanNaiveButSafeOnCruise) {
  const auto cruise = benchmarks::cruise_benchmark();
  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);
  const auto configs = benchmarks::cruise_sample_configs(cruise);
  std::size_t strictly_tighter = 0;
  for (const auto& config : configs) {
    const auto system = hardening::apply_hardening(
        cruise.apps, config.candidate.plan, config.candidate.base_mapping,
        cruise.arch.processor_count());
    const auto proposed = analysis.analyze(cruise.arch, system,
                                           config.candidate.drop,
                                           core::McAnalysis::Mode::kProposed);
    const auto naive = analysis.analyze(cruise.arch, system,
                                        config.candidate.drop,
                                        core::McAnalysis::Mode::kNaive);
    for (const char* name : {"speed_ctrl", "brake_mon"}) {
      const auto id = system.apps.find_graph(name);
      EXPECT_LE(proposed.graph_wcrt(system.apps, id),
                naive.graph_wcrt(system.apps, id));
      if (proposed.graph_wcrt(system.apps, id) <
          naive.graph_wcrt(system.apps, id))
        ++strictly_tighter;
    }
  }
  // The chronological refinement must actually buy something somewhere.
  EXPECT_GT(strictly_tighter, 0u);
}

TEST(Integration, EvaluatorAgreesWithManualPipeline) {
  const auto bench = benchmarks::dt_med_benchmark();
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(bench.arch, bench.apps, backend);
  core::Candidate candidate =
      fixtures::plain_candidate(bench.arch, bench.apps);
  const auto evaluation = evaluator.evaluate(candidate);

  const auto system = hardening::apply_hardening(
      bench.apps, candidate.plan, candidate.base_mapping,
      bench.arch.processor_count());
  const double power = core::expected_power(
      bench.arch, system, candidate.allocation);
  if (evaluation.feasible()) {
    EXPECT_DOUBLE_EQ(evaluation.power, power);
  } else {
    // Infeasible candidates carry a graded penalty of at least one base
    // unit on top of the raw power.
    EXPECT_GE(evaluation.power, power + 1.0e9);
  }
  EXPECT_DOUBLE_EQ(
      evaluation.service,
      core::service_value(bench.apps,
                          std::vector<bool>(bench.apps.graph_count(), false)));
}

}  // namespace
