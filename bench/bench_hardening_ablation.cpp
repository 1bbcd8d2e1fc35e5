// Ablation: value of exploring the hardening technique per task.
//
// Section 5.2 observes that the optimizer overwhelmingly picks re-execution
// on the control benchmarks.  This bench quantifies the other side: what
// does restricting the explored hardening space cost?  Three DSE runs per
// benchmark —
//   free         techniques explored per task (the paper's setup),
//   reexec-only  the decoder rewrites every replication gene to
//                re-execution,
//   replication  re-execution forbidden (replication/none only; reliability
//                repair limited to replication) — shows the voter-failure
//                floor: very tight f_t constraints become unreachable.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/table.hpp"

using namespace ftmc;

namespace {

/// One restricted DSE run; the restriction is enforced by the decoder on
/// every chromosome (Lamarckian, so the gene pool follows).
double best_power(const benchmarks::Benchmark& bench,
                  dse::TechniqueRestriction restriction) {
  const sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer(bench.arch, bench.apps, backend);
  dse::GaOptions options;
  options.population = bench::env_or("FTMC_POPULATION", 40);
  options.offspring = options.population;
  options.generations = bench::env_or("FTMC_GENERATIONS", 50);
  options.seed = 99;
  options.optimize_service = false;
  options.decoder.restriction = restriction;
  const auto result = optimizer.run(options);
  return result.best_feasible_power;
}

std::string cell(double value) {
  return std::isnan(value) ? "infeasible" : util::Table::cell(value, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  util::Table table(
      "Hardening-space ablation: best feasible power [mW]\n(free = paper "
      "setup; reexec-only / replication-only restrict the explored "
      "techniques)");
  table.set_header({"Benchmark", "free", "reexec-only", "replication-only"});
  obs::Json rows = obs::Json::array();
  for (const auto& bench :
       {benchmarks::dt_med_benchmark(), benchmarks::cruise_benchmark()}) {
    std::cout << "running " << bench.name << "...\n";
    const double free_power =
        best_power(bench, dse::TechniqueRestriction::kNone);
    const double reexec_power =
        best_power(bench, dse::TechniqueRestriction::kReexecutionOnly);
    const double replication_power =
        best_power(bench, dse::TechniqueRestriction::kReplicationOnly);
    table.add_row({bench.name, cell(free_power), cell(reexec_power),
                   cell(replication_power)});
    rows.push(obs::Json::object()
                  .set("name", bench.name)
                  .set("free_power", obs::Json::number(free_power, 1))
                  .set("reexec_power", obs::Json::number(reexec_power, 1))
                  .set("replication_power",
                       obs::Json::number(replication_power, 1)));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: free ~= reexec-only (the optimizer picks\n"
               "re-execution anyway, Section 5.2); replication-only is far\n"
               "worse or infeasible (always-on replicas cost utilization and\n"
               "the fallible voter caps achievable reliability).\n";
  obs::Json summary = obs::Json::object();
  summary.set("bench", "hardening_ablation").set("benchmarks", std::move(rows));
  reporter.finish(summary);
  return 0;
}
