// A/B measurement of the prepared simulation kernel (ISSUE 3 acceptance
// bench): a Monte-Carlo fault-injection campaign on the DT-large (dream)
// benchmark, same failure profiles in every arm.
//
//   seed               the original path: every profile rebuilds all static
//                      tables and allocates a fresh trace (the test-only
//                      oracle::simulate of tests/oracle/, always full
//                      trace);
//   prepared kFull     one PreparedSim shared by all profiles, per-worker
//                      scratch, full trace — isolates the prepare-once +
//                      allocation-reuse gain;
//   prepared kResponses  the Monte-Carlo setting: same kernel, no job
//                      records / segments / per-instance responses — adds
//                      the trace-gating gain on top.
//
// Every arm simulates the identical profile set (the monte_carlo_wcrt seed
// formula), hands profiles to workers through an atomic counter, and folds
// per-graph worst / percentiles / miss counts into a checksum, so the
// printed speedups compare bit-identical campaign results (the differential
// guarantee of tests/test_sim_kernel.cpp).
//
// The last line is a one-line JSON summary (like bench_sched_kernel) for CI
// and scripted regression tracking.
//
// Environment knobs: FTMC_MC_PROFILES (default 2000), FTMC_SEED (2014),
// FTMC_THREADS (0 = hardware concurrency), FTMC_REPS (3, median).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/sim/prepared_sim.hpp"
#include "ftmc/util/rng.hpp"
#include "ftmc/util/stats.hpp"
#include "ftmc/util/table.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "oracle/reference_sim.hpp"

using namespace ftmc;

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const long parsed = std::atol(raw);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

constexpr double kFaultProbability = 0.3;

/// The system under simulation: DT-large with one seeded random candidate.
struct Rig {
  benchmarks::Benchmark benchmark;
  hardening::HardenedSystem system;
  core::DropSet drop;
  std::vector<std::uint32_t> priorities;
};

Rig make_rig(std::uint64_t seed) {
  benchmarks::Benchmark benchmark = benchmarks::dt_large_benchmark();
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(seed);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  const core::Candidate candidate = decoder.decode(chromosome, rng);
  auto system = hardening::apply_hardening(benchmark.apps, candidate.plan,
                                           candidate.base_mapping,
                                           benchmark.arch.processor_count());
  auto priorities = sched::assign_priorities(system.apps);
  return Rig{std::move(benchmark), std::move(system), candidate.drop,
             std::move(priorities)};
}

struct ArmOutcome {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< FNV-ish fold of the campaign statistics
  std::size_t events = 0;      ///< simulation events processed
};

/// Runs one campaign: `profiles` fault realizations (the monte_carlo_wcrt
/// seed formula) handed out through an atomic counter, aggregated exactly
/// like monte_carlo_wcrt, folded into a checksum.  `simulate` returns the
/// result of one profile given its per-profile RNG streams.
ArmOutcome run_campaign(
    const Rig& rig, std::size_t profiles, std::uint64_t seed,
    util::ThreadPool& pool,
    const std::function<const sim::SimResult&(sim::RandomFaults&,
                                              sim::UniformExecution&)>&
        simulate) {
  const std::size_t graphs = rig.system.apps.graph_count();
  std::vector<std::vector<double>> samples(graphs);
  std::vector<model::Time> worst(graphs, -1);
  std::vector<std::size_t> dropped(graphs, 0);
  std::atomic<std::size_t> miss_count{0};
  std::atomic<std::size_t> events_total{0};
  std::atomic<std::size_t> next_profile{0};
  std::mutex merge_mutex;

  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for(std::max<std::size_t>(pool.thread_count(), 1),
                    [&](std::size_t) {
    std::vector<std::vector<double>> local_samples(graphs);
    std::vector<model::Time> local_worst(graphs, -1);
    std::vector<std::size_t> local_dropped(graphs, 0);
    std::size_t local_miss = 0;
    std::size_t local_events = 0;
    for (;;) {
      const std::size_t profile =
          next_profile.fetch_add(1, std::memory_order_relaxed);
      if (profile >= profiles) break;
      util::Rng base(seed + 0x51ed270b * static_cast<std::uint64_t>(profile));
      sim::RandomFaults faults(base.split(), kFaultProbability);
      sim::UniformExecution durations(base.split());
      const sim::SimResult& result = simulate(faults, durations);
      local_events += result.events;
      if (result.deadline_miss) ++local_miss;
      for (std::size_t g = 0; g < graphs; ++g) {
        const model::Time response = result.graph_response[g];
        if (response < 0) {
          ++local_dropped[g];
          continue;
        }
        local_worst[g] = std::max(local_worst[g], response);
        local_samples[g].push_back(static_cast<double>(response));
      }
    }
    std::lock_guard lock(merge_mutex);
    for (std::size_t g = 0; g < graphs; ++g) {
      worst[g] = std::max(worst[g], local_worst[g]);
      dropped[g] += local_dropped[g];
      samples[g].insert(samples[g].end(), local_samples[g].begin(),
                        local_samples[g].end());
    }
    miss_count += local_miss;
    events_total += local_events;
  });

  ArmOutcome outcome;
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  outcome.events = events_total;
  const auto fold = [&outcome](std::uint64_t value) {
    outcome.checksum = (outcome.checksum ^ value) * 0x100000001b3ULL;
  };
  fold(miss_count);
  for (std::size_t g = 0; g < graphs; ++g) {
    std::sort(samples[g].begin(), samples[g].end());
    fold(static_cast<std::uint64_t>(worst[g]));
    fold(dropped[g]);
    fold(samples[g].size());
    if (!samples[g].empty()) {
      fold(static_cast<std::uint64_t>(samples[g].front()));
      fold(static_cast<std::uint64_t>(
          util::percentile_sorted(samples[g], 0.95)));
      fold(static_cast<std::uint64_t>(
          util::percentile_sorted(samples[g], 0.99)));
    }
  }
  return outcome;
}

/// Runs every arm once per round and keeps each arm's fastest round: the
/// arms see the same background load, and the minimum is the standard
/// noise-robust estimator on a shared machine.
std::vector<ArmOutcome> best_of_interleaved(
    std::size_t reps, const std::vector<std::function<ArmOutcome()>>& arms) {
  std::vector<ArmOutcome> best(arms.size());
  for (std::size_t r = 0; r < reps; ++r)
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const ArmOutcome outcome = arms[a]();
      if (r == 0 || outcome.seconds < best[a].seconds) best[a] = outcome;
    }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Reporter reporter(argc, argv);
  const std::size_t profiles = env_or("FTMC_MC_PROFILES", 2000);
  const std::uint64_t seed = env_or("FTMC_SEED", 2014);
  const std::size_t threads = env_or("FTMC_THREADS", 0);
  const std::size_t reps = env_or("FTMC_REPS", 3);

  const Rig rig = make_rig(seed);
  util::ThreadPool pool(threads);
  std::cout << "Simulation-kernel A/B: " << rig.benchmark.name << ", "
            << profiles << " failure profiles, seed " << seed
            << ", interleaved arms, best of " << reps << " rounds, "
            << pool.thread_count()
            << " workers (FTMC_MC_PROFILES / FTMC_SEED / FTMC_THREADS / "
               "FTMC_REPS)\n";

  sim::SimOptions legacy_options;  // full trace, one hyperperiod
  const auto seed_campaign = [&] {
    return run_campaign(
        rig, profiles, seed, pool,
        [&](sim::RandomFaults& faults,
            sim::UniformExecution& durations) -> const sim::SimResult& {
          thread_local sim::SimResult result;
          result = oracle::simulate(rig.benchmark.arch, rig.system,
                                    rig.drop, rig.priorities, faults,
                                    durations, legacy_options);
          return result;
        });
  };
  const auto prepared_campaign = [&](sim::TraceLevel level) {
    return [&rig, profiles, seed, &pool, level] {
      const sim::PreparedSim prepared(rig.benchmark.arch, rig.system,
                                      rig.drop, rig.priorities);
      sim::RunOptions options;
      options.trace = level;
      return run_campaign(
          rig, profiles, seed, pool,
          [&](sim::RandomFaults& faults,
              sim::UniformExecution& durations) -> const sim::SimResult& {
            return prepared.run(faults, durations, options,
                                sim::PreparedSim::thread_scratch());
          });
    };
  };
  const std::vector<ArmOutcome> best = best_of_interleaved(
      reps, {seed_campaign, prepared_campaign(sim::TraceLevel::kFull),
             prepared_campaign(sim::TraceLevel::kResponses)});
  const ArmOutcome& seed_arm = best[0];
  const ArmOutcome& full_arm = best[1];
  const ArmOutcome& responses_arm = best[2];

  const bool identical = seed_arm.checksum == full_arm.checksum &&
                         seed_arm.checksum == responses_arm.checksum &&
                         seed_arm.events == full_arm.events &&
                         seed_arm.events == responses_arm.events;
  const double full_speedup = seed_arm.seconds / full_arm.seconds;
  const double responses_speedup = seed_arm.seconds / responses_arm.seconds;
  const auto events_per_s = [](const ArmOutcome& arm) {
    return static_cast<double>(arm.events) / arm.seconds;
  };

  util::Table table(
      "Monte-Carlo campaign: per-profile rebuild + full trace (seed) vs "
      "prepared kernel");
  table.set_header({"arm", "time [s]", "events/s", "speedup", "identical"});
  table.add_row({"seed (rebuild, full trace)",
                 util::Table::cell(seed_arm.seconds, 3),
                 util::Table::cell(events_per_s(seed_arm) / 1e6, 2) + "M",
                 "1.00x", "-"});
  table.add_row({"prepared, full trace",
                 util::Table::cell(full_arm.seconds, 3),
                 util::Table::cell(events_per_s(full_arm) / 1e6, 2) + "M",
                 util::Table::cell(full_speedup, 2) + "x",
                 seed_arm.checksum == full_arm.checksum ? "yes" : "NO"});
  table.add_row({"prepared, responses only",
                 util::Table::cell(responses_arm.seconds, 3),
                 util::Table::cell(events_per_s(responses_arm) / 1e6, 2) + "M",
                 util::Table::cell(responses_speedup, 2) + "x",
                 seed_arm.checksum == responses_arm.checksum ? "yes" : "NO"});
  table.print(std::cout);
  std::cout << "(same profiles and per-profile seeds in every arm; "
               "'identical' cross-checks worst / p95 / p99 / miss / dropped "
               "counts and the processed-event total.)\n";

  obs::Json summary = obs::Json::object();
  summary.set("bench", "sim_kernel")
      .set("benchmark", rig.benchmark.name)
      .set("profiles", profiles)
      .set("reps", reps)
      .set("threads", pool.thread_count())
      .set("events", seed_arm.events)
      .set("seed_s", obs::Json::number(seed_arm.seconds, 4))
      .set("prepared_full_s", obs::Json::number(full_arm.seconds, 4))
      .set("prepared_responses_s",
           obs::Json::number(responses_arm.seconds, 4))
      .set("full_speedup", obs::Json::number(full_speedup, 2))
      .set("responses_speedup", obs::Json::number(responses_speedup, 2))
      .set("responses_events_per_s",
           obs::Json::number(events_per_s(responses_arm), 0))
      .set("identical", identical);
  reporter.finish(summary);
  return identical ? 0 : 1;
}
