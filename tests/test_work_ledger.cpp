// Algorithm 1's work ledger: the Section 3 complexity claim as exact counts.
//
// The paper bounds Algorithm 1 at |triggers| + 2 backend solves, plus
// |triggers| x |V'| classification steps, on top of the backend's cost C.
// This test checks the solve bound on every instance and sums the work per
// size over seeded synthetic instances: triggers, unique scenarios after
// dedup, backend solves, scenarios the saturation probe skipped, node
// evaluations and diverged solves.  The sums are compared exactly with the
// table in EXPERIMENTS.md ("Section 3 complexity claim"), so the numbers
// live in one place: a change that moves Algorithm 1's work fails here
// until the document is updated, and the failure prints the measured table
// in the document's format.  Counts, unlike wall times, are the same on
// every host.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"

namespace {

using namespace ftmc;

constexpr std::array<std::size_t, 5> kSizes{12, 24, 48, 96, 192};
constexpr std::uint64_t kSeedsPerSize = 20;
constexpr std::string_view kSection = "## Section 3 complexity claim";
constexpr std::string_view kHeader =
    "| \\|V\\| target | instances | tasks in V | tasks in V' | triggers | "
    "unique scenarios | backend solves | skipped (saturated) | "
    "node evaluations | diverged solves | diverged share |\n"
    "|---|---|---|---|---|---|---|---|---|---|---|\n";

struct Instance {
  model::Architecture arch;
  model::ApplicationSet apps;
  core::Candidate candidate;
};

/// About `tasks` synthetic tasks on 4 PEs (5-7 tasks per graph, total
/// utilization 0.5) and one decoded random chromosome.  Seed 0 of each size
/// is the instance the retired google-benchmark harness timed.
Instance make_instance(std::size_t tasks, std::uint64_t seed) {
  benchmarks::SynthParams params;
  params.seed = 99 + tasks + 1000 * seed;
  params.graph_count = std::max<std::size_t>(2, tasks / 6);
  params.min_tasks = 5;
  params.max_tasks = 7;
  params.graph_utilization = 0.5 / static_cast<double>(params.graph_count);
  auto apps = benchmarks::synthetic_applications(params);
  auto arch = model::ArchitectureBuilder{}
                  .add_processors({"pe", 0, 50.0, 150.0, 2e-9, 1.0}, 4)
                  .bandwidth(100.0)
                  .build();
  const dse::Decoder decoder(arch, apps);
  util::Rng rng(tasks + 1000 * seed);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  core::Candidate candidate = decoder.decode(chromosome, rng);
  return Instance{std::move(arch), std::move(apps), std::move(candidate)};
}

/// One size's sums over its instances.
struct LedgerRow {
  std::size_t size = 0;
  std::uint64_t tasks = 0;
  std::uint64_t hardened_tasks = 0;
  std::uint64_t triggers = 0;
  std::uint64_t unique_scenarios = 0;
  std::uint64_t solves = 0;
  std::uint64_t skipped = 0;
  std::uint64_t node_evals = 0;
  std::uint64_t diverged = 0;

  std::string render() const {
    std::ostringstream out;
    out << "| " << size << " | " << kSeedsPerSize << " | " << tasks << " | "
        << hardened_tasks << " | " << triggers << " | " << unique_scenarios
        << " | " << solves << " | " << skipped << " | " << node_evals
        << " | " << diverged << " | " << std::fixed << std::setprecision(1)
        << 100.0 * static_cast<double>(diverged) /
               static_cast<double>(solves)
        << "% |";
    return out.str();
  }
};

LedgerRow measure(std::size_t size) {
  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);
  LedgerRow row;
  row.size = size;
  for (std::uint64_t seed = 0; seed < kSeedsPerSize; ++seed) {
    SCOPED_TRACE("|V| " + std::to_string(size) + ", seed " +
                 std::to_string(seed));
    const Instance instance = make_instance(size, seed);
    // T' borrows the instance's applications, so it is built from them in
    // place (an Instance moves its set on return).
    const hardening::HardenedSystem system = hardening::apply_hardening(
        instance.apps, instance.candidate.plan,
        instance.candidate.base_mapping, instance.arch.processor_count());
    const obs::MetricsSnapshot before = obs::snapshot();
    // No pool: every scenario goes to one batched solve, so every count is
    // exact.
    const core::McAnalysisResult result = analysis.analyze(
        instance.arch, system, instance.candidate.drop);
    const obs::MetricsSnapshot after = obs::snapshot();
    const auto delta = [&](std::string_view name) {
      return after.value_of(name) - before.value_of(name);
    };

    // Algorithm 1 calls for scenario_solves solves; each one is either
    // run by the backend or skipped by the saturation probe.
    const std::uint64_t solves = delta("sched.solves");
    const std::uint64_t skipped = delta("analysis.saturation_skips");
    EXPECT_EQ(solves + skipped, result.scenario_solves);
    EXPECT_LE(result.scenario_solves, result.scenario_count + 2);

    row.tasks += instance.apps.task_count();
    row.hardened_tasks += system.apps.task_count();
    row.triggers += result.scenario_count;
    row.unique_scenarios +=
        delta("analysis.scenarios") - delta("analysis.scenario_dedup_hits");
    row.solves += solves;
    row.skipped += skipped;
    row.node_evals += delta("sched.worklist.node_evals") +
                      delta("sched.batch.node_evals");
    row.diverged += delta("sched.solve_divergences");
  }
  return row;
}

/// The data rows of the table in `path`'s Section 3 section.
std::vector<std::string> documented_rows(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("## "))
      in_section = line.starts_with(kSection);
    else if (in_section && line.size() > 2 && line.starts_with("| ") &&
             std::isdigit(static_cast<unsigned char>(line[2])))
      rows.push_back(line);
  }
  return rows;
}

TEST(WorkLedger, AlgorithmOneMatchesExperimentsSection3) {
  std::vector<std::string> measured;
  for (const std::size_t size : kSizes)
    measured.push_back(measure(size).render());

  const std::string path = std::string(FTMC_SOURCE_DIR) + "/EXPERIMENTS.md";
  const std::vector<std::string> documented = documented_rows(path);
  if (measured != documented) {
    std::string table(kHeader);
    for (const std::string& row : measured) table += row + '\n';
    ADD_FAILURE() << "Algorithm 1's work differs from the table under \""
                  << kSection << "\" in " << path
                  << " (" << documented.size()
                  << " documented rows). Measured:\n"
                  << table;
  }
}

}  // namespace
