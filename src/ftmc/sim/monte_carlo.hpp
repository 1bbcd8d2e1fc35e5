// Monte-Carlo worst-case search ("WC-Sim" of Table 2): simulate many random
// failure profiles (random per-attempt faults + random execution times) and
// record the maximum observed response time per graph.  This is a *lower*
// bound on the true WCRT — the paper uses it to show that simulation
// coverage alone is not a safe analysis.  Profiles run at
// TraceLevel::kResponses: the campaign reads only graph responses, event
// counts and deadline misses, which every level fills.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ftmc/sim/prepared_sim.hpp"
#include "ftmc/sim/simulator.hpp"
#include "ftmc/util/rng.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace ftmc::sim {

struct MonteCarloOptions {
  std::size_t profiles = 10'000;  ///< paper: 10,000 failure profiles
  /// Probability that a given execution attempt is hit by a fault.  Chosen
  /// high (vs. realistic lambda*C) so the search actually visits faulty and
  /// mixed schedules.
  double fault_probability = 0.3;
  std::size_t hyperperiods = 1;
  std::uint64_t seed = 1;
  /// Worker threads (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Per-profile event budget (throws, wrapped with profile context).
  std::size_t max_events = 50'000'000;
};

/// Response-time distribution of one graph over the simulated profiles.
struct ResponseDistribution {
  std::size_t observations = 0;  ///< profiles in which the graph completed
  std::size_t dropped = 0;       ///< profiles in which it was dropped
  std::size_t deadline_misses = 0;
  double mean = 0.0;
  model::Time min = -1;
  model::Time max = -1;
  model::Time p95 = -1;
  model::Time p99 = -1;
};

struct MonteCarloResult {
  /// Max observed response per graph (-1: dropped in every profile).
  std::vector<model::Time> worst_response;
  /// Per-graph response-time distributions across profiles.
  std::vector<ResponseDistribution> distribution;
  /// Profiles in which any non-dropped graph missed its deadline.
  std::size_t deadline_miss_profiles = 0;
  std::size_t profiles = 0;
  /// Simulation events processed across all profiles (kernel throughput
  /// counter; order-independent sum, so deterministic).
  std::size_t events_processed = 0;
};

/// Runs `options.profiles` independent simulations and aggregates maxima.
MonteCarloResult monte_carlo_wcrt(const model::Architecture& arch,
                                  const hardening::HardenedSystem& system,
                                  const core::DropSet& drop,
                                  const std::vector<std::uint32_t>& priorities,
                                  const MonteCarloOptions& options = {});

/// Same campaign over an already-built PreparedSim (`ftmc serve` keeps one
/// resident per system, so repeated simulate requests skip the prepare).
/// `system` must be the hardened system `prepared` was built from, and
/// `prepared`'s hyperperiods must match `options.hyperperiods`.  When `pool`
/// is non-null the profiles run on it (options.threads is ignored);
/// otherwise a pool with options.threads workers is created per call.
/// Results are bit-identical to the owning overload for equal inputs.
MonteCarloResult monte_carlo_wcrt(const PreparedSim& prepared,
                                  const hardening::HardenedSystem& system,
                                  const MonteCarloOptions& options,
                                  util::ThreadPool* pool = nullptr);

}  // namespace ftmc::sim
