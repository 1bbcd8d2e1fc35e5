// Differential suite for the prepared simulation kernel: PreparedSim::run
// must be bit-identical to the reference implementation (the original
// monolithic Simulator::run, preserved as oracle::simulate in
// tests/oracle/reference_sim.hpp) for every system, option combination, and
// fault realization — and stay so across scratch reuse and concurrent runs
// sharing one PreparedSim.  The systems are small random synthetic ones and
// DT-large, each under a random decoded candidate per seed.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <limits>
#include <vector>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/benchmarks/synth.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/sim/prepared_sim.hpp"
#include "helpers.hpp"
#include "oracle/reference_sim.hpp"

namespace {

using namespace ftmc;

struct Configured {
  model::Architecture arch;
  hardening::HardenedSystem system;
  core::DropSet drop;
  std::vector<std::uint32_t> priorities;
};

/// `apps` on `arch` under a candidate decoded from a random chromosome.
Configured configure(model::Architecture arch,
                     const model::ApplicationSet& apps, std::uint64_t seed) {
  util::Rng rng(seed);
  const dse::Decoder decoder(arch, apps);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  const core::Candidate candidate = decoder.decode(chromosome, rng);
  auto system = hardening::apply_hardening(apps, candidate.plan,
                                           candidate.base_mapping,
                                           arch.processor_count());
  auto priorities = sched::assign_priorities(system.apps);
  return Configured{std::move(arch), std::move(system), candidate.drop,
                    std::move(priorities)};
}

/// Random synthetic system + random decoded candidate, as in
/// test_sim_properties.cpp.  Synthetic channels carry bytes, so remote
/// edges produce bus message nodes under bus_contention.
Configured random_configured(std::uint64_t seed) {
  benchmarks::SynthParams params;
  params.seed = seed * 77 + 5;
  params.graph_count = 3;
  params.min_tasks = 3;
  params.max_tasks = 6;
  return configure(fixtures::test_arch(3),
                   benchmarks::synthetic_applications(params), seed);
}

/// DT-large (paper §5) + random decoded candidate: the largest system the
/// Monte-Carlo campaigns of Table 2 and `ftmc simulate` run.
Configured dt_large_configured(std::uint64_t seed) {
  const benchmarks::Benchmark benchmark = benchmarks::dt_large_benchmark();
  return configure(benchmark.arch, benchmark.apps, seed);
}

#define EXPECT_JOBS_EQ(a, b)                          \
  do {                                                \
    ASSERT_EQ((a).size(), (b).size());                \
    for (std::size_t i = 0; i < (a).size(); ++i) {    \
      EXPECT_EQ((a)[i].flat_task, (b)[i].flat_task);  \
      EXPECT_EQ((a)[i].instance, (b)[i].instance);    \
      EXPECT_EQ((a)[i].release_time, (b)[i].release_time); \
      EXPECT_EQ((a)[i].ready_time, (b)[i].ready_time); \
      EXPECT_EQ((a)[i].start_time, (b)[i].start_time); \
      EXPECT_EQ((a)[i].finish_time, (b)[i].finish_time); \
      EXPECT_EQ((a)[i].attempts, (b)[i].attempts);    \
      EXPECT_EQ((a)[i].result_faulty, (b)[i].result_faulty); \
      EXPECT_EQ((a)[i].state, (b)[i].state) << "job " << i; \
    }                                                 \
  } while (0)

/// Full bitwise comparison of two results at the given trace level.  The
/// reference always materializes everything; the prepared side must match
/// exactly what its level promises and leave the rest empty.
void expect_level_identical(const sim::SimResult& reference,
                            const sim::SimResult& prepared,
                            sim::TraceLevel level) {
  // Aggregates exist at every level.
  EXPECT_EQ(reference.graph_response, prepared.graph_response);
  EXPECT_EQ(reference.critical_entry, prepared.critical_entry);
  EXPECT_EQ(reference.deadline_miss, prepared.deadline_miss);
  EXPECT_EQ(reference.unsafe_result, prepared.unsafe_result);
  EXPECT_EQ(reference.events, prepared.events);

  if (level == sim::TraceLevel::kResponses) {
    EXPECT_TRUE(prepared.jobs.empty());
    EXPECT_TRUE(prepared.responses.empty());
    EXPECT_TRUE(prepared.segments.empty());
    return;
  }

  EXPECT_JOBS_EQ(reference.jobs, prepared.jobs);
  ASSERT_EQ(reference.responses.size(), prepared.responses.size());
  for (std::size_t i = 0; i < reference.responses.size(); ++i) {
    EXPECT_EQ(reference.responses[i].graph, prepared.responses[i].graph);
    EXPECT_EQ(reference.responses[i].instance, prepared.responses[i].instance);
    EXPECT_EQ(reference.responses[i].release_time,
              prepared.responses[i].release_time);
    EXPECT_EQ(reference.responses[i].response, prepared.responses[i].response);
    EXPECT_EQ(reference.responses[i].deadline_met,
              prepared.responses[i].deadline_met);
  }

  if (level == sim::TraceLevel::kJobs) {
    EXPECT_TRUE(prepared.segments.empty());
    return;
  }

  ASSERT_EQ(reference.segments.size(), prepared.segments.size());
  for (std::size_t i = 0; i < reference.segments.size(); ++i) {
    EXPECT_EQ(reference.segments[i].pe, prepared.segments[i].pe);
    EXPECT_EQ(reference.segments[i].job, prepared.segments[i].job);
    EXPECT_EQ(reference.segments[i].from, prepared.segments[i].from);
    EXPECT_EQ(reference.segments[i].to, prepared.segments[i].to) << "seg " << i;
  }
}

/// Every option combination and trace level on `config`, one fault
/// realization drawn from `seed`, against the reference simulator.
void expect_matches_reference(const Configured& config, std::uint64_t seed) {
  for (const bool bus : {false, true}) {
    for (const bool critical : {false, true}) {
      sim::SimOptions legacy_options;
      legacy_options.hyperperiods = 2;
      legacy_options.bus_contention = bus;
      legacy_options.start_in_critical_state = critical;

      util::Rng ref_rng(seed ^ 0xABCD);
      sim::RandomFaults ref_faults(ref_rng.split(), 0.4);
      sim::UniformExecution ref_durations(ref_rng.split());
      const auto reference = oracle::simulate(
          config.arch, config.system, config.drop, config.priorities,
          ref_faults, ref_durations, legacy_options);

      const sim::PreparedSim prepared(
          config.arch, config.system, config.drop, config.priorities,
          sim::PrepareOptions{legacy_options.hyperperiods, bus});
      sim::PreparedSim::Scratch scratch;
      for (const sim::TraceLevel level :
           {sim::TraceLevel::kResponses, sim::TraceLevel::kJobs,
            sim::TraceLevel::kFull}) {
        // Same scratch reused across levels: state must fully reset.
        util::Rng rng(seed ^ 0xABCD);
        sim::RandomFaults faults(rng.split(), 0.4);
        sim::UniformExecution durations(rng.split());
        sim::RunOptions run_options;
        run_options.start_in_critical_state = critical;
        run_options.trace = level;
        const sim::SimResult& result =
            prepared.run(faults, durations, run_options, scratch);
        expect_level_identical(reference, result, level);
      }
    }
  }
}

class SimKernelDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimKernelDifferential, MatchesReferenceAcrossOptionsAndLevels) {
  const std::uint64_t seed = GetParam();
  {
    SCOPED_TRACE("synthetic");
    expect_matches_reference(random_configured(seed), seed);
  }
  {
    SCOPED_TRACE("DT-large");
    expect_matches_reference(dt_large_configured(seed), seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimKernelDifferential,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(SimKernel, LegacyAdapterMatchesReferenceBitwise) {
  const Configured config = random_configured(99);
  const sim::Simulator simulator(config.arch, config.system, config.drop,
                                 config.priorities);
  sim::SimOptions options;
  options.hyperperiods = 2;
  util::Rng rng_a(4242), rng_b(4242);
  sim::RandomFaults faults_a(rng_a.split(), 0.5);
  sim::UniformExecution durations_a(rng_a.split());
  sim::RandomFaults faults_b(rng_b.split(), 0.5);
  sim::UniformExecution durations_b(rng_b.split());
  const auto via_adapter = simulator.run(faults_a, durations_a, options);
  const auto reference =
      oracle::simulate(config.arch, config.system, config.drop,
                       config.priorities, faults_b, durations_b, options);
  expect_level_identical(reference, via_adapter, sim::TraceLevel::kFull);
}

TEST(SimKernel, ScratchReuseAcrossRunsAndProblems) {
  sim::PreparedSim::Scratch scratch;
  // Run several different problems (different sizes) through ONE scratch;
  // each must still match a fresh-scratch run bit-for-bit.
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const Configured config = random_configured(seed);
    const sim::PreparedSim prepared(config.arch, config.system, config.drop,
                                    config.priorities);
    for (int repeat = 0; repeat < 3; ++repeat) {
      util::Rng rng(seed * 31 + static_cast<std::uint64_t>(repeat));
      sim::RandomFaults faults(rng.split(), 0.4);
      sim::UniformExecution durations(rng.split());
      sim::RunOptions options;
      const sim::SimResult reused =
          prepared.run(faults, durations, options, scratch);

      util::Rng rng2(seed * 31 + static_cast<std::uint64_t>(repeat));
      sim::RandomFaults faults2(rng2.split(), 0.4);
      sim::UniformExecution durations2(rng2.split());
      sim::PreparedSim::Scratch fresh;
      const sim::SimResult& clean =
          prepared.run(faults2, durations2, options, fresh);
      expect_level_identical(clean, reused, sim::TraceLevel::kFull);
    }
  }
}

TEST(SimKernel, SharedPreparedSimSupportsConcurrentRuns) {
  const Configured config = random_configured(12);
  const sim::PreparedSim prepared(config.arch, config.system, config.drop,
                                  config.priorities);
  // Sequential truth for four distinct seeds.
  std::vector<sim::SimResult> expected;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    util::Rng rng(1000 + seed);
    sim::RandomFaults faults(rng.split(), 0.5);
    sim::UniformExecution durations(rng.split());
    sim::PreparedSim::Scratch scratch;
    expected.push_back(
        prepared.run(faults, durations, sim::RunOptions{}, scratch));
  }
  // The same four runs concurrently on the shared PreparedSim.
  std::vector<std::future<sim::SimResult>> futures;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    futures.push_back(std::async(std::launch::async, [&prepared, seed] {
      util::Rng rng(1000 + seed);
      sim::RandomFaults faults(rng.split(), 0.5);
      sim::UniformExecution durations(rng.split());
      sim::PreparedSim::Scratch scratch;
      return prepared.run(faults, durations, sim::RunOptions{}, scratch);
    }));
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    expect_level_identical(expected[seed], futures[seed].get(),
                           sim::TraceLevel::kFull);
}

// Algorithm 1's bound must dominate every response the prepared kernel
// observes (the safety relation of Section 5.1, now through the new path).
TEST(SimKernel, Algorithm1BoundsPreparedKernelResponses) {
  for (const std::uint64_t seed : {3u, 8u, 15u}) {
    const Configured config = random_configured(seed);
    const sched::HolisticAnalysis backend;
    const core::McAnalysis analysis(backend);
    const auto verdict =
        analysis.analyze(config.arch, config.system, config.drop,
                         core::McAnalysis::Mode::kProposed);

    sim::MonteCarloOptions options;
    options.profiles = 200;
    options.seed = seed;
    options.fault_probability = 0.5;
    options.threads = 2;
    const auto observed = sim::monte_carlo_wcrt(
        config.arch, config.system, config.drop, config.priorities, options);
    for (std::uint32_t g = 0; g < config.system.apps.graph_count(); ++g) {
      if (config.drop[g] || observed.worst_response[g] < 0) continue;
      EXPECT_GE(verdict.graph_wcrt(config.system.apps, model::GraphId{g}),
                observed.worst_response[g])
          << "seed " << seed << " graph " << g;
    }
  }
}

void expect_mc_identical(const sim::MonteCarloResult& a,
                         const sim::MonteCarloResult& b) {
  EXPECT_EQ(a.worst_response, b.worst_response);
  EXPECT_EQ(a.deadline_miss_profiles, b.deadline_miss_profiles);
  EXPECT_EQ(a.profiles, b.profiles);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.distribution.size(), b.distribution.size());
  for (std::size_t g = 0; g < a.distribution.size(); ++g) {
    const auto& da = a.distribution[g];
    const auto& db = b.distribution[g];
    EXPECT_EQ(da.observations, db.observations);
    EXPECT_EQ(da.dropped, db.dropped);
    EXPECT_EQ(da.deadline_misses, db.deadline_misses);
    EXPECT_EQ(da.min, db.min);
    EXPECT_EQ(da.max, db.max);
    EXPECT_EQ(da.p95, db.p95);
    EXPECT_EQ(da.p99, db.p99);
    // Bitwise, not approximate: the mean accumulates over the sorted sample
    // set, so thread scheduling must not perturb a single bit.
    const double mean_a = da.mean;
    const double mean_b = db.mean;
    std::uint64_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &mean_a, sizeof bits_a);
    std::memcpy(&bits_b, &mean_b, sizeof bits_b);
    EXPECT_EQ(bits_a, bits_b) << "graph " << g << " mean drifted";
  }
}

TEST(SimKernel, MonteCarloBitIdenticalAcrossThreadCounts) {
  const Configured config = random_configured(21);
  sim::MonteCarloOptions options;
  options.profiles = 257;  // deliberately not a multiple of any worker count
  options.seed = 77;
  options.fault_probability = 0.4;

  options.threads = 1;
  const auto one = sim::monte_carlo_wcrt(config.arch, config.system,
                                         config.drop, config.priorities,
                                         options);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    // Repeat each configuration: dynamic chunking makes the work split
    // nondeterministic, the result must not be.
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto again = sim::monte_carlo_wcrt(
          config.arch, config.system, config.drop, config.priorities, options);
      expect_mc_identical(one, again);
    }
  }
}

TEST(SimKernel, EventBudgetErrorNamesTheProfile) {
  const Configured config = random_configured(2);
  sim::MonteCarloOptions options;
  options.profiles = 8;
  options.seed = 5;
  options.threads = 1;
  options.max_events = 3;  // trips immediately, on profile 0
  try {
    sim::monte_carlo_wcrt(config.arch, config.system, config.drop,
                          config.priorities, options);
    FAIL() << "expected the event budget to trip";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("monte_carlo_wcrt: profile 0 of 8"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("seed 5"), std::string::npos) << message;
    EXPECT_NE(message.find("event budget"), std::string::npos) << message;
  }
}

TEST(SimKernel, RunThrowsWhenEventBudgetExceeded) {
  const Configured config = random_configured(2);
  const sim::PreparedSim prepared(config.arch, config.system, config.drop,
                                  config.priorities);
  sim::NoFaults faults;
  sim::WcetExecution durations;
  sim::RunOptions options;
  options.max_events = 1;
  sim::PreparedSim::Scratch scratch;
  EXPECT_THROW(prepared.run(faults, durations, options, scratch),
               std::runtime_error);
  // The scratch remains usable for a normal run afterwards.
  options.max_events = 50'000'000;
  const sim::SimResult& ok = prepared.run(faults, durations, options, scratch);
  EXPECT_FALSE(ok.graph_response.empty());
}

// hyperperiods x hyperperiod must fit model::Time, or the simulated
// horizon overflows: the constructor refuses before sizing any table.
TEST(SimKernel, OverflowingHorizonIsRejected) {
  const Configured config = random_configured(4);
  const model::Time hyper = config.system.apps.hyperperiod();
  const auto fitting = static_cast<std::size_t>(
      std::numeric_limits<model::Time>::max() / hyper);
  for (const std::size_t hyperperiods :
       {fitting + 1, std::numeric_limits<std::size_t>::max()}) {
    EXPECT_THROW(sim::PreparedSim(config.arch, config.system, config.drop,
                                  config.priorities,
                                  sim::PrepareOptions{hyperperiods, false}),
                 std::invalid_argument)
        << hyperperiods;
  }
}

}  // namespace
