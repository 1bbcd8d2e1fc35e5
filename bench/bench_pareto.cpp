// Reproduces Figure 5: co-optimization of service and power for DT-med.
//
// Bi-objective DSE (minimize expected power, maximize post-dropping QoS)
// over the DT-med benchmark, whose droppable applications t1/t2/t3 carry
// service values 1/2/4.  The paper reports five Pareto-optimal points
// spanning the range from "drop everything" (phi; lowest power) to "drop
// nothing" ({t1,t2,t3}; maximum service).
//
// Environment knobs: FTMC_GENERATIONS (default 80), FTMC_POPULATION (50),
// FTMC_SEED (5).
#include <algorithm>
#include <iostream>

#include "ftmc/benchmarks/dream.hpp"
#include "bench_common.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/table.hpp"

using namespace ftmc;

namespace {

/// Figure-5-style label: the set of *alive* droppable applications.
std::string alive_label(const model::ApplicationSet& apps,
                        const core::DropSet& drop) {
  std::string label = "{";
  bool first = true;
  for (const model::GraphId g : apps.droppable_graphs()) {
    if (drop[g.value]) continue;
    if (!first) label += ",";
    label += apps.graph(g).name();
    first = false;
  }
  label += "}";
  return label == "{}" ? "phi" : label;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const auto bench = benchmarks::dt_med_benchmark();
  const sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer(bench.arch, bench.apps, backend);

  dse::GaOptions options;
  options.population = bench::env_or("FTMC_POPULATION", 50);
  options.offspring = options.population;
  options.generations = bench::env_or("FTMC_GENERATIONS", 80);
  options.seed = bench::env_or("FTMC_SEED", 5);
  options.optimize_service = true;

  std::cout << "Figure 5 reproduction: power/service Pareto front for "
            << bench.name << " (population " << options.population << ", "
            << options.generations << " generations; paper: 100 x 5000)\n";

  auto result = optimizer.run(options);

  std::sort(result.pareto.begin(), result.pareto.end(),
            [](const dse::Individual& a, const dse::Individual& b) {
              return a.evaluation.power < b.evaluation.power;
            });

  util::Table table("\nPareto-optimal designs (service = sum of sv over "
                    "non-dropped droppable applications)");
  table.set_header({"alive droppable apps", "service", "power [mW]"});
  for (const auto& individual : result.pareto) {
    table.add_row({alive_label(bench.apps, individual.candidate.drop),
                   util::Table::cell(individual.evaluation.service, 1),
                   util::Table::cell(individual.evaluation.power, 1)});
  }
  table.print(std::cout);

  // Shape checks: the front is monotone (more service costs more power) and
  // spans from low-service/low-power towards high-service/high-power.
  bool monotone = true;
  for (std::size_t i = 1; i < result.pareto.size(); ++i) {
    monotone &= result.pareto[i].evaluation.service >
                result.pareto[i - 1].evaluation.service;
  }
  std::cout << "\nPareto points found: " << result.pareto.size()
            << " (paper: 5)\n"
            << "Front monotone in (power, service): "
            << (monotone ? "yes" : "NO") << '\n'
            << "Evaluations: " << result.evaluations << '\n';
  obs::Json summary = obs::Json::object();
  summary.set("bench", "pareto")
      .set("pareto_points", result.pareto.size())
      .set("monotone", monotone)
      .set("evaluations", result.evaluations);
  reporter.finish(summary);
  return result.pareto.empty() ? 1 : 0;
}
