#include "ftmc/dse/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>

#include "ftmc/dse/checkpoint.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/util/file_io.hpp"

namespace ftmc::dse {
namespace {

struct CampaignCounters {
  obs::Counter shards{"dse.campaign.shards"};
  obs::Counter retries{"dse.campaign.retries"};
  obs::Counter migration_epochs{"dse.migration.epochs"};
  obs::Counter migrants{"dse.migration.migrants"};
};

CampaignCounters& counters() {
  static CampaignCounters instance;
  return instance;
}

/// An island's barrier donation: the best feasible non-dominated archive
/// members, one per objective vector, in lexicographic objective order so
/// the selection is independent of archive layout.
std::vector<Individual> select_migrants(const Checkpoint& snapshot,
                                        std::size_t count) {
  std::vector<const Individual*> feasible;
  std::vector<ObjectiveVector> points;
  for (const Individual& individual : snapshot.archive) {
    if (!individual.evaluation.feasible()) continue;
    feasible.push_back(&individual);
    points.push_back(individual.objectives);
  }
  std::vector<const Individual*> front;
  for (std::size_t index : pareto_front(points))
    front.push_back(feasible[index]);
  std::sort(front.begin(), front.end(),
            [](const Individual* a, const Individual* b) {
              return a->objectives < b->objectives;
            });
  std::vector<Individual> migrants;
  for (const Individual* individual : front) {
    if (migrants.size() >= count) break;
    if (!migrants.empty() &&
        migrants.back().objectives == individual->objectives)
      continue;
    migrants.push_back(*individual);
  }
  return migrants;
}

bool archive_has_objectives(const std::vector<Individual>& archive,
                            const ObjectiveVector& objectives) {
  return std::any_of(archive.begin(), archive.end(),
                     [&](const Individual& individual) {
                       return individual.objectives == objectives;
                     });
}

}  // namespace

std::string shard_checkpoint_path(const std::string& base, std::size_t shard,
                                  std::size_t shard_count) {
  if (base.empty() || shard_count <= 1) return base;
  return base + ".s" + std::to_string(shard);
}

std::vector<Individual> merge_fronts(const std::vector<ShardResult>& shards) {
  // Each shard front is already feasible and internally non-dominated;
  // the union is not, so take the Pareto front of the concatenation and
  // keep one representative per objective vector in shard order.
  std::vector<const Individual*> members;
  std::vector<ObjectiveVector> points;
  for (const ShardResult& shard : shards)
    for (const Individual& individual : shard.result.pareto) {
      members.push_back(&individual);
      points.push_back(individual.objectives);
    }
  std::vector<Individual> front;
  std::vector<ObjectiveVector> seen;
  for (std::size_t index : pareto_front(points)) {
    const Individual& individual = *members[index];
    if (std::find(seen.begin(), seen.end(), individual.objectives) !=
        seen.end())
      continue;
    seen.push_back(individual.objectives);
    front.push_back(individual);
  }
  return front;
}

Campaign::Campaign(const model::Architecture& arch,
                   const model::ApplicationSet& apps,
                   const sched::SchedulingAnalysis& backend)
    : arch_(&arch), apps_(&apps), backend_(&backend) {}

CampaignResult Campaign::run(const CampaignOptions& options) const {
  const std::vector<std::uint64_t> seeds =
      options.seeds.empty() ? std::vector<std::uint64_t>{options.ga.seed}
                            : options.seeds;
  const GeneticOptimizer optimizer(*arch_, *apps_, *backend_);
  const std::size_t islands = seeds.size();
  const std::size_t generations = options.ga.generations;
  // Without migration the whole run is one epoch over the full generation
  // budget, and the islands (plain shards) run one after another.
  const bool migrating = options.migration_every > 0;
  const auto campaign_start = std::chrono::steady_clock::now();

  // Per-island state.  Snapshots carry the trajectory between epochs (and
  // receive migrants at barriers); the atomics are written from island
  // threads and read by the shared budget check.
  std::vector<ShardResult> results(islands);
  std::vector<std::shared_ptr<Checkpoint>> snaps(islands);
  std::vector<std::atomic<std::uint64_t>> last_reported(islands);
  std::vector<std::int64_t> last_forwarded(islands, -1);
  std::vector<std::atomic<std::size_t>> island_evaluations(islands);
  std::vector<char> started(islands, 0);
  std::vector<char> done(islands, 0);
  for (std::size_t island = 0; island < islands; ++island)
    results[island].seed = seeds[island];
  // An in-process island's L1 outlives its epochs (each epoch is a fresh
  // GA run, which would otherwise build a fresh cache); it is released
  // when the island is done.
  std::vector<std::unique_ptr<core::EvaluationCache>> caches(islands);
  if (!options.executor_factory && options.ga.executor == nullptr &&
      options.ga.evaluator.cache == nullptr)
    for (auto& cache : caches)
      cache = std::make_unique<core::EvaluationCache>();

  // User-supplied callbacks are not required to be thread-safe; one mutex
  // serializes stop_requested and on_generation across island threads.
  std::mutex user_mutex;
  std::atomic<bool> stop_hit{false};
  std::atomic<bool> budget_hit{false};

  const auto global_should_stop = [&]() {
    if (options.stop_requested) {
      std::lock_guard<std::mutex> lock(user_mutex);
      if (options.stop_requested()) {
        stop_hit.store(true);
        return true;
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      campaign_start)
            .count();
    if (options.max_seconds > 0.0 && elapsed >= options.max_seconds) {
      budget_hit.store(true);
      return true;
    }
    if (options.max_evaluations > 0) {
      std::size_t total = 0;
      for (const auto& count : island_evaluations) total += count.load();
      if (total >= options.max_evaluations) {
        budget_hit.store(true);
        return true;
      }
    }
    return false;
  };

  CampaignResult campaign;
  for (std::size_t epoch = 1;; ++epoch) {
    const std::uint64_t target =
        migrating ? std::min<std::uint64_t>(
                        generations, static_cast<std::uint64_t>(epoch) *
                                         options.migration_every)
                  : generations;

    // One island, one epoch: run the GA until its reported generation
    // reaches the epoch target (the stop predicate fires at the boundary,
    // after the target generation's stats were delivered), capturing an
    // in-memory snapshot to continue from after the barrier.
    const auto run_island = [&](std::size_t island) {
      if (done[island]) return;
      if (!started[island]) {
        // Once a stop or a budget has fired, no further island starts.
        if (stop_hit.load() || budget_hit.load() || global_should_stop())
          return;
        started[island] = 1;
        counters().shards.add(1);
      }
      const std::string checkpoint_path =
          shard_checkpoint_path(options.checkpoint_path, island, islands);

      double backoff = options.retry_backoff_seconds;
      for (std::size_t attempt = 0;; ++attempt) {
        GaOptions ga = options.ga;
        ga.seed = seeds[island];
        ga.checkpoint_path = checkpoint_path;
        ga.checkpoint_every = options.checkpoint_every;
        if (caches[island] != nullptr)
          ga.evaluator.cache = caches[island].get();
        ga.stop_requested = [&, island] {
          return last_reported[island].load() >= target ||
                 global_should_stop();
        };
        island_evaluations[island].store(0);
        ga.on_generation = [&, island](const GenerationStats& stats) {
          // A resumed run replays its whole history, so summing every
          // delivery yields the island's full-trajectory evaluation count;
          // the user only sees generations beyond the last forwarded one.
          island_evaluations[island] += stats.evaluations;
          last_reported[island].store(stats.generation);
          if (options.on_generation &&
              static_cast<std::int64_t>(stats.generation) >
                  last_forwarded[island]) {
            last_forwarded[island] =
                static_cast<std::int64_t>(stats.generation);
            std::lock_guard<std::mutex> lock(user_mutex);
            options.on_generation(island, stats);
          }
        };

        // A fresh executor per attempt: a retry after a worker loss must
        // not reuse the connection that just died.
        std::unique_ptr<Executor> executor;
        if (options.executor_factory) {
          executor = options.executor_factory(island);
          ga.executor = executor.get();
        }

        // Resume source.  A retry prefers the newest on-disk snapshot (the
        // failed attempt's own cadence writes, strictly past the barrier);
        // otherwise the island continues from its in-memory epoch snapshot,
        // which carries any migrants.  The first epoch honours
        // options.resume against whatever is on disk.  Either way the
        // resumed trajectory is the one the failed attempt was on (the
        // resume guarantee of checkpoint.hpp); without checkpointing a
        // first-epoch retry restarts from scratch.
        std::optional<Checkpoint> disk;
        const bool want_disk =
            (attempt > 0 || (epoch == 1 && options.resume)) &&
            !checkpoint_path.empty() && util::file_exists(checkpoint_path);
        if (want_disk) {
          disk = load_checkpoint(checkpoint_path);
          if (epoch == 1 && attempt == 0) results[island].resumed = true;
        }
        if (disk && (snaps[island] == nullptr ||
                     disk->generation > snaps[island]->generation)) {
          ga.resume = &*disk;
        } else if (snaps[island] != nullptr) {
          ga.resume = snaps[island].get();
        }

        try {
          results[island].result = optimizer.run(ga);
          break;
        } catch (const CheckpointError&) {
          throw;  // defective snapshot / options mismatch: never retried
        } catch (const std::invalid_argument&) {
          throw;  // configuration error: retrying cannot help
        } catch (const std::exception&) {
          if (attempt >= options.max_retries) throw;
          counters().retries.add(1);
          ++results[island].retries;
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(backoff, options.max_backoff_seconds)));
          backoff *= 2.0;
        }
      }

      // The resume-of-finished fast path returns no snapshot; keep the one
      // we already have in that case.
      if (results[island].result.snapshot != nullptr)
        snaps[island] = results[island].result.snapshot;
      if (!results[island].result.interrupted ||
          results[island].result.last_generation >= generations) {
        done[island] = 1;
        caches[island].reset();
      }
    };

    if (migrating && options.parallel_islands) {
      std::vector<std::thread> threads;
      threads.reserve(islands);
      std::mutex failure_mutex;
      std::exception_ptr failure;
      for (std::size_t island = 0; island < islands; ++island)
        threads.emplace_back([&, island] {
          try {
            run_island(island);
          } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure) failure = std::current_exception();
          }
        });
      for (std::thread& thread : threads) thread.join();
      if (failure) std::rethrow_exception(failure);
    } else {
      for (std::size_t island = 0; island < islands; ++island)
        run_island(island);
    }

    // Without migration every island has now either finished or been
    // stopped by a stop request or a budget, so this ends shard mode.
    const bool all_done =
        std::all_of(done.begin(), done.end(),
                    [](char is_done) { return is_done != 0; });
    if (all_done || stop_hit.load() || budget_hit.load()) break;

    // Migration barrier: island i donates to island i+1 on the ring.
    // Every migrant list is computed against the pre-barrier snapshots
    // before any archive is touched, so the exchange is symmetric and
    // independent of island order.
    if (islands > 1 && options.migration_size > 0) {
      counters().migration_epochs.add(1);
      ++campaign.migration_epochs;
      std::vector<std::vector<Individual>> outgoing(islands);
      for (std::size_t island = 0; island < islands; ++island)
        if (snaps[island] != nullptr)
          outgoing[island] =
              select_migrants(*snaps[island], options.migration_size);
      for (std::size_t island = 0; island < islands; ++island) {
        const std::size_t recipient = (island + 1) % islands;
        if (snaps[recipient] == nullptr || done[recipient]) continue;
        for (const Individual& migrant : outgoing[island]) {
          if (archive_has_objectives(snaps[recipient]->archive,
                                     migrant.objectives))
            continue;
          snaps[recipient]->archive.push_back(migrant);
          counters().migrants.add(1);
          ++campaign.migrants;
        }
      }
    }
    // Islands do not poll at their epoch-target boundary; a stop or budget
    // that fired since their last poll ends the campaign here.
    if (global_should_stop()) break;
  }

  campaign.interrupted = stop_hit.load();
  campaign.budget_exhausted = budget_hit.load();
  for (std::size_t island = 0; island < islands; ++island) {
    if (!started[island]) continue;
    campaign.evaluations += results[island].result.evaluations;
    campaign.shards.push_back(std::move(results[island]));
  }
  campaign.front = merge_fronts(campaign.shards);
  return campaign;
}

}  // namespace ftmc::dse
