#include "ftmc/sim/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "ftmc/obs/metrics.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/sim/prepared_sim.hpp"
#include "ftmc/util/stats.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace ftmc::sim {

namespace {

struct McCounters {
  obs::Counter campaigns{"mc.campaigns"};
  obs::Counter profiles{"mc.profiles"};
};

McCounters& mc_counters() {
  static McCounters counters;
  return counters;
}

}  // namespace

MonteCarloResult monte_carlo_wcrt(
    const model::Architecture& arch, const hardening::HardenedSystem& system,
    const core::DropSet& drop, const std::vector<std::uint32_t>& priorities,
    const MonteCarloOptions& options) {
  // Build the static problem once; every profile below only re-runs it.
  const PreparedSim prepared(arch, system, drop, priorities,
                             PrepareOptions{options.hyperperiods, false});
  return monte_carlo_wcrt(prepared, system, options, nullptr);
}

MonteCarloResult monte_carlo_wcrt(const PreparedSim& prepared,
                                  const hardening::HardenedSystem& system,
                                  const MonteCarloOptions& options,
                                  util::ThreadPool* external_pool) {
  obs::Span campaign_span("mc.campaign");
  mc_counters().campaigns.add(1);
  const std::size_t graphs = system.apps.graph_count();

  MonteCarloResult result;
  result.worst_response.assign(graphs, -1);
  result.distribution.assign(graphs, ResponseDistribution{});
  result.profiles = options.profiles;

  std::mutex merge_mutex;
  std::atomic<std::size_t> miss_count{0};
  std::atomic<std::size_t> events_total{0};
  // Fault-triggered re-executions and standby activations make profile cost
  // uneven, so profiles are handed out dynamically instead of in static
  // per-worker chunks: no worker idles while another drains a heavy stretch.
  std::atomic<std::size_t> next_profile{0};

  // Per-graph response samples, merged at the end for percentiles.  The
  // merge order varies with thread scheduling; every order-sensitive
  // statistic (mean included) is computed after the canonical sort, so the
  // result is bit-identical across thread counts and runs.
  std::vector<std::vector<double>> samples(graphs);

  RunOptions run_options;
  run_options.max_events = options.max_events;
  run_options.trace = TraceLevel::kResponses;

  std::optional<util::ThreadPool> owned_pool;
  if (external_pool == nullptr) owned_pool.emplace(options.threads);
  util::ThreadPool& pool = external_pool ? *external_pool : *owned_pool;
  const std::size_t workers =
      std::min(std::max<std::size_t>(pool.thread_count(), 1),
               std::max<std::size_t>(options.profiles, 1));

  pool.parallel_for(workers, [&](std::size_t) {
    obs::Span worker_span("mc.worker");
    // One scratch arena per worker thread, shared across all its profiles
    // (and with any other campaign this thread ever runs).
    PreparedSim::Scratch& scratch = PreparedSim::thread_scratch();
    std::vector<model::Time> local_worst(graphs, -1);
    std::vector<std::vector<double>> local_samples(graphs);
    std::vector<std::size_t> local_dropped(graphs, 0);
    std::vector<std::size_t> local_misses(graphs, 0);
    std::size_t local_miss = 0;
    std::size_t local_events = 0;
    std::uint64_t local_profiles = 0;

    for (;;) {
      const std::size_t profile =
          next_profile.fetch_add(1, std::memory_order_relaxed);
      if (profile >= options.profiles) break;
      ++local_profiles;
      // Independent, reproducible stream per profile.
      const std::uint64_t profile_seed =
          options.seed + 0x51ed270b * static_cast<std::uint64_t>(profile);
      try {
        util::Rng base(profile_seed);
        RandomFaults faults(base.split(), options.fault_probability);
        UniformExecution durations(base.split());
        const SimResult& sim =
            prepared.run(faults, durations, run_options, scratch);
        local_events += sim.events;
        for (std::size_t g = 0; g < graphs; ++g) {
          const model::Time response = sim.graph_response[g];
          if (response < 0) {
            ++local_dropped[g];
            continue;
          }
          local_worst[g] = std::max(local_worst[g], response);
          local_samples[g].push_back(static_cast<double>(response));
          if (response >
              system.apps.graph(model::GraphId{static_cast<std::uint32_t>(g)})
                  .deadline())
            ++local_misses[g];
        }
        if (sim.deadline_miss) ++local_miss;
      } catch (const std::exception& error) {
        // Surface which profile of the campaign blew up (event budget, bad
        // model...) instead of a bare kernel error from the fan-out.
        throw std::runtime_error(
            "monte_carlo_wcrt: profile " + std::to_string(profile) + " of " +
            std::to_string(options.profiles) + " (seed " +
            std::to_string(profile_seed) + ") failed: " + error.what());
      }
    }

    std::lock_guard lock(merge_mutex);
    for (std::size_t g = 0; g < graphs; ++g) {
      result.worst_response[g] =
          std::max(result.worst_response[g], local_worst[g]);
      samples[g].insert(samples[g].end(), local_samples[g].begin(),
                        local_samples[g].end());
      result.distribution[g].dropped += local_dropped[g];
      result.distribution[g].deadline_misses += local_misses[g];
    }
    miss_count += local_miss;
    events_total += local_events;
    mc_counters().profiles.add(local_profiles);
  });

  for (std::size_t g = 0; g < graphs; ++g) {
    ResponseDistribution& dist = result.distribution[g];
    std::vector<double>& sample_set = samples[g];
    dist.observations = sample_set.size();
    if (sample_set.empty()) continue;
    // Sort first: min/max/p95/p99 index into the sorted set, and the mean
    // accumulates over it in sorted (therefore deterministic) order —
    // accumulating in merge order would drift with thread scheduling.
    std::sort(sample_set.begin(), sample_set.end());
    util::RunningStats stats;
    for (const double sample : sample_set) stats.add(sample);
    dist.mean = stats.mean();
    dist.min = static_cast<model::Time>(sample_set.front());
    dist.max = static_cast<model::Time>(sample_set.back());
    dist.p95 =
        static_cast<model::Time>(util::percentile_sorted(sample_set, 0.95));
    dist.p99 =
        static_cast<model::Time>(util::percentile_sorted(sample_set, 0.99));
  }

  result.deadline_miss_profiles = miss_count;
  result.events_processed = events_total;
  return result;
}

}  // namespace ftmc::sim
