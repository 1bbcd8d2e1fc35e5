// Distributed island campaign scaling (the `ftmc campaign --workers=N`
// acceptance bench):
//
//   1 worker    every island evaluates on the same spawned `ftmc serve`
//               worker (--threads=1), so the per-worker mutex serializes
//               all evaluation — the floor a single evaluation endpoint
//               imposes no matter how many islands run;
//   N workers   one single-threaded worker per island, islands evaluate
//               concurrently (the regime the worker fleet exists for).
//
// Both arms run the identical campaign (same seeds, same migration
// cadence) and decode is content-seeded, so the fronts must be bitwise
// identical: the speedup is pure horizontal scaling, never a different
// search.  CI gates `speedup >= 2` on hosts with >= 4 cores
// (tools/check_metrics.py, check_distributed_summary).
//
// Environment knobs: FTMC_ISLANDS (default 4), FTMC_GENERATIONS (default
// 8), FTMC_POPULATION (default 16).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dist/worker.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/table.hpp"

using namespace ftmc;

namespace {

/// The synth benchmark written as a system file for the spawned workers.
std::string write_bench_system(const benchmarks::Benchmark& benchmark) {
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(2014);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  const core::Candidate candidate = decoder.decode(chromosome, rng);
  const std::string path = "/tmp/ftmc_bench_distributed.ftmc";
  std::ofstream out(path);
  io::write_system(out, benchmark.arch, benchmark.apps, &candidate);
  return path;
}

dse::CampaignOptions campaign_options(std::size_t islands,
                                      std::size_t generations,
                                      std::size_t population) {
  dse::CampaignOptions options;
  options.ga.population = population;
  options.ga.offspring = population;
  options.ga.generations = generations;
  options.ga.threads = 1;  // decode stays cheap; evaluation is remote
  for (std::size_t i = 0; i < islands; ++i)
    options.seeds.push_back(11 * (i + 1));
  options.migration_every = generations / 2;
  options.migration_size = 2;
  options.parallel_islands = true;
  return options;
}

/// One campaign against a fresh fleet of `spawn` single-threaded workers;
/// returns wall seconds and the front through out-params.
double run_arm(const dse::Campaign& campaign, const std::string& path,
               std::size_t spawn, std::size_t islands,
               std::size_t generations, std::size_t population,
               std::vector<dse::Individual>& front) {
  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = spawn;
  fleet_options.worker_threads = 1;
  dist::WorkerFleet fleet(std::move(fleet_options));

  dse::CampaignOptions options =
      campaign_options(islands, generations, population);
  const std::vector<std::uint64_t> seeds = options.seeds;
  options.executor_factory = [&fleet, &path, seeds](std::size_t island) {
    return std::unique_ptr<dse::Executor>(
        std::make_unique<dist::RemoteExecutor>(
            fleet, fleet.assign(island), path,
            seeds[island % seeds.size()]));
  };

  const auto begin = std::chrono::steady_clock::now();
  dse::CampaignResult result = campaign.run(options);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  front = std::move(result.front);
  return wall;
}

bool same_front(const std::vector<dse::Individual>& a,
                const std::vector<dse::Individual>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].objectives != b[i].objectives) return false;
    if (a[i].chromosome != b[i].chromosome) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const std::size_t islands = bench::env_or("FTMC_ISLANDS", 4);
  const std::size_t generations = bench::env_or("FTMC_GENERATIONS", 8);
  const std::size_t population = bench::env_or("FTMC_POPULATION", 16);

  const benchmarks::Benchmark benchmark = benchmarks::synth_benchmark(1);
  const std::string path = write_bench_system(benchmark);
  sched::HolisticAnalysis backend;
  const dse::Campaign campaign(benchmark.arch, benchmark.apps, backend);

  std::cout << "distributed campaign: " << islands << " islands x "
            << generations << " generations, population " << population
            << " (FTMC_ISLANDS / FTMC_GENERATIONS / FTMC_POPULATION)\n";

  std::vector<dse::Individual> single_front;
  const double single_s = run_arm(campaign, path, 1, islands, generations,
                                  population, single_front);
  std::vector<dse::Individual> fleet_front;
  const double fleet_s = run_arm(campaign, path, islands, islands,
                                 generations, population, fleet_front);

  const bool identical = same_front(single_front, fleet_front);
  const double speedup = fleet_s > 0 ? single_s / fleet_s : 0.0;

  util::Table table("ftmc campaign: one shared worker vs one per island");
  table.set_header({"arm", "workers", "wall [s]", "speedup"});
  table.add_row({"shared worker", "1", util::Table::cell(single_s, 2),
                 "1.00x"});
  table.add_row({"worker per island", std::to_string(islands),
                 util::Table::cell(fleet_s, 2),
                 util::Table::cell(speedup, 2) + "x"});
  table.print(std::cout);
  std::cout << "(fronts cross-checked "
            << (identical ? "bitwise identical" : "DIFFERENT")
            << "; the speedup is horizontal scaling, not a different "
               "search)\n";

  obs::Json summary = obs::Json::object();
  summary.set("bench", "distributed")
      .set("islands", islands)
      .set("generations", generations)
      .set("population", population)
      // CI gates the speedup only on hosts with enough cores to show it.
      .set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("single_worker_s", obs::Json::number(single_s, 2))
      .set("fleet_s", obs::Json::number(fleet_s, 2))
      .set("speedup", obs::Json::number(speedup, 2))
      .set("identical", identical);
  reporter.finish(summary);
  return identical ? 0 : 1;
}
