// campaign-dtmed-2w: the `ftmc campaign --workers=2` path on DT-med — two
// island seeds on two single-threaded `ftmc serve` workers sharing a cold
// --cache-dir store, population 40, migration every 10 generations, one
// coordinator GA thread with parallel islands.  Every rep builds a fresh
// dist::WorkerFleet and evaluates through dist::RemoteExecutor.  The fleet
// spawns its workers itself (the path `ftmc campaign --workers=2` takes),
// except in a traced rep: the fleet does not forward --access-log, so
// there the benchmark starts the workers with access logs and hands them
// to the fleet as hosts.  Each island's coordinator thread and its worker
// share one pinned CPU (see loop_cpus), so every RPC hands over on it.
#include <algorithm>
#include <filesystem>
#include <thread>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/core/eval_store.hpp"
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ftmc;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kPopulation = 40;
constexpr std::size_t kGenerations = 100;
constexpr std::size_t kMigrationEvery = 10;
constexpr std::size_t kMigrationSize = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kGaThreads = 1;
constexpr std::size_t kReplayLimit = 1500;
/// Nominal wall time of one campaign (spawn, run, shutdown) on the
/// reference machine (4 cores); a run makes --seconds / this many.
constexpr double kNominalRepSeconds = 1.8;

dse::CampaignOptions campaign_options(const std::vector<std::uint64_t>& seeds) {
  dse::CampaignOptions options;
  options.ga.population = kPopulation;
  options.ga.offspring = kPopulation;
  options.ga.generations = kGenerations;
  options.ga.threads = kGaThreads;
  options.seeds = seeds;
  options.migration_every = kMigrationEvery;
  options.migration_size = kMigrationSize;
  options.parallel_islands = true;
  return options;
}

/// RemoteExecutor's batch request for one recorded batch.
std::string batch_request(const std::vector<const CapturedRequest*>& items,
                          const std::string& system, std::uint64_t seed) {
  obs::Json batch = obs::Json::array();
  for (std::size_t index = 0; index < items.size(); ++index)
    batch.push(obs::Json::object()
                   .set("id", index)
                   .set("method", "evaluate")
                   .set("system", system)
                   .set("params",
                        obs::Json::object()
                            .set("chromosome",
                                 dist::chromosome_json(items[index]->genotype))
                            .set("seed", seed)));
  return obs::Json::object()
      .set("v", serve::kRpcVersion)
      .set("id", "executor")
      .set("method", "batch")
      .set("params", obs::Json::object().set("requests", std::move(batch)))
      .dump();
}

struct Rep {
  dse::CampaignResult result;
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  Recorder recorder;
  GenerationClock clock;
  std::map<std::string, std::uint64_t> coordinator;  ///< counter delta
  std::map<std::string, std::uint64_t> workers;      ///< summed counters
  /// Traced reps: each worker's access-log records, and the replayed
  /// encode/decode of every batch (microseconds).
  std::vector<std::vector<AccessRecord>> access;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::size_t redecode_mismatches = 0;
};

/// Replays RemoteExecutor's wire work for every recorded batch against the
/// live worker that served it: encode the request, re-send it, decode the
/// reply with dist::evaluation_from_json.
void replay_wire(Rep& rep, dist::WorkerFleet& fleet, const std::string& system,
                 const std::vector<std::uint64_t>& seeds) {
  std::map<std::size_t, std::vector<const CapturedRequest*>> by_batch;
  for (const CapturedRequest& request : rep.recorder.captured)
    by_batch[request.batch].push_back(&request);
  for (const auto& [index, items] : by_batch) {
    const std::size_t island = rep.recorder.batches[index].island;
    auto start = Clock::now();
    const std::string request = batch_request(items, system, seeds[island]);
    rep.encode_us.push_back(since(start) * 1e6);
    const std::string reply = fleet.call(fleet.assign(island), request);
    start = Clock::now();
    const serve::JsonValue root = serve::parse_json(reply);
    const serve::JsonValue* results =
        root.get("result") == nullptr ? nullptr
                                      : root.get("result")->get("results");
    std::vector<core::Evaluation> evaluations;
    if (results != nullptr)
      for (const serve::JsonValue& item : results->array)
        if (const serve::JsonValue* result = item.get("result"))
          evaluations.push_back(dist::evaluation_from_json(*result));
    rep.decode_us.push_back(since(start) * 1e6);
    if (evaluations.size() != items.size()) {
      ++rep.redecode_mismatches;
      continue;
    }
    for (std::size_t i = 0; i < items.size(); ++i)
      if (!same_evaluation(evaluations[i], items[i]->evaluation))
        ++rep.redecode_mismatches;
  }
}

void run_rep(const Options& options, const std::string& system,
             const std::vector<std::uint64_t>& seeds, std::size_t index,
             bool traced, Rep& rep) {
  const std::string store = options.run_dir + "/store-" + std::to_string(index);
  fs::remove_all(store);
  const std::vector<int> cpus = loop_cpus(kWorkers);
  std::vector<std::string> logs;
  const auto spawn_start = Clock::now();
  dist::WorkerFleetOptions fleet_options;
  std::vector<std::unique_ptr<ServeProcess>> hosts;  // traced rep only
  if (traced) {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      std::string name = "w";
      name += std::to_string(w);
      logs.push_back(options.run_dir + "/" + name + ".access.jsonl");
      fs::remove(logs.back());
      hosts.push_back(std::make_unique<ServeProcess>(
          options, system, name,
          std::vector<std::string>{"--threads=1", "--cache-dir=" + store,
                                   "--access-log=" + logs.back()},
          cpus[w]));
      fleet_options.hosts.push_back(hosts.back()->endpoint());
    }
  } else {
    fleet_options.ftmc_binary = options.ftmc_binary;
    fleet_options.system_path = system;
    fleet_options.spawn = kWorkers;
    fleet_options.worker_threads = 1;
    fleet_options.cache_dir = store;
  }

  {
    dist::WorkerFleet fleet(std::move(fleet_options));
    for (std::size_t w = 0; w < fleet.size(); ++w)
      expect_ready(fleet.call(w, kHealthRequest));
    rep.setup_s = since(spawn_start);
    if (!traced)
      for (std::size_t w = 0; w < fleet.size(); ++w)
        pin_process(fleet.pid(w), cpus[w]);
    const sched::HolisticAnalysis backend;
    const io::SystemSpec spec = io::parse_system_file(system);
    const dse::Campaign campaign(spec.arch, spec.apps, backend);
    dse::CampaignOptions campaign_opts = campaign_options(seeds);
    campaign_opts.executor_factory =
        [&](std::size_t island) -> std::unique_ptr<dse::Executor> {
      {
        std::lock_guard lock(rep.recorder.mutex);
        rep.recorder.epoch_starts[island].push_back(Clock::now());
      }
      // Called on the island's own thread, before the GA starts its pool.
      pin_this_thread(cpus[fleet.assign(island)]);
      return std::make_unique<TimedExecutor>(
          std::make_unique<dist::RemoteExecutor>(fleet, fleet.assign(island),
                                                 system, seeds[island]),
          rep.recorder, island);
    };
    campaign_opts.on_generation = [&](std::size_t shard,
                                      const dse::GenerationStats&) {
      rep.clock.mark(shard);
    };
    {
      // The coordinator's counters cover the campaign's own calls only.
      const auto before = counters_of(obs::snapshot());
      obs::Span span("perfbench.workload");
      const auto start = Clock::now();
      rep.result = campaign.run(campaign_opts);
      rep.run_s = since(start);
      rep.coordinator = counter_delta(before, counters_of(obs::snapshot()));
    }
    rep.peak_rss_mb = self_peak_rss_mb();
    for (std::size_t w = 0; w < fleet.size(); ++w) {
      add_counters(rep.workers,
                   counters_of_reply(fleet.call(w, kMetricsRequest)));
      if (!traced) rep.peak_rss_mb += peak_rss_mb_of(fleet.pid(w));
    }
    if (traced) replay_wire(rep, fleet, system, seeds);
  }  // the fleet asks every worker to shut down and reaps spawned ones

  for (auto& host : hosts) rep.peak_rss_mb += host->stop();
  for (const std::string& log : logs) rep.access.push_back(read_access_log(log));
  fs::remove_all(store);
}

/// Mean over migration epochs and islands of (slowest island's epoch time
/// minus this island's), milliseconds.
double barrier_wait_ms(const Rep& rep) {
  std::map<std::size_t, std::vector<double>> epoch_ms;  // island -> epochs
  for (const auto& [island, starts] : rep.recorder.epoch_starts) {
    const auto marks = rep.clock.marks.find(island);
    if (marks == rep.clock.marks.end()) continue;
    for (std::size_t e = 0; e < starts.size(); ++e) {
      const bool last = e + 1 == starts.size();
      Clock::time_point end = starts[e];
      for (const Clock::time_point mark : marks->second)
        if (mark >= starts[e] && (last || mark < starts[e + 1])) end = mark;
      epoch_ms[island].push_back(seconds_between(starts[e], end) * 1e3);
    }
  }
  std::vector<double> waits;
  std::size_t epochs = 0;
  for (const auto& [island, times] : epoch_ms)
    epochs = std::max(epochs, times.size());
  for (std::size_t e = 0; e < epochs; ++e) {
    double slowest = 0.0;
    for (const auto& [island, times] : epoch_ms)
      if (e < times.size()) slowest = std::max(slowest, times[e]);
    for (const auto& [island, times] : epoch_ms)
      if (e < times.size()) waits.push_back(slowest - times[e]);
  }
  return mean(waits);
}

obs::Json context(const Options& options, std::size_t reps) {
  obs::Json pinned = obs::Json::array();
  for (const int cpu : loop_cpus(kWorkers))
    pinned.push(obs::Json::uinteger(static_cast<std::uint64_t>(cpu)));
  return obs::Json::object()
      .set("workload", options.workload)
      .set("seed", options.seed)
      .set("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .set("workers", kWorkers)
      .set("worker_threads", 1)
      .set("coordinator_ga_threads", kGaThreads)
      .set("islands", kWorkers)
      .set("population", kPopulation)
      .set("generations", kGenerations)
      .set("migration_every", kMigrationEvery)
      .set("pinned_cpus", std::move(pinned))
      .set("reps", reps);
}

/// Every worker RPC's duration, island by island in call order (islands
/// record concurrently, so the recorder interleaves them).
std::vector<double> rpc_ms(const Rep& rep) {
  std::map<std::size_t, std::vector<double>> by_island;
  for (const BatchRecord& batch : rep.recorder.batches)
    if (batch.requests > 0) by_island[batch.island].push_back(batch.ms());
  std::vector<double> samples;
  for (const auto& [island, calls] : by_island)
    samples.insert(samples.end(), calls.begin(), calls.end());
  return samples;
}

/// Per-layer metrics of the last traced rep; `untraced_s` / `traced_s` are
/// the run times of the alternating untraced and traced reps.
void report_traced(Report& report, const std::vector<double>& untraced_s,
                   const std::vector<double>& traced_s, double spawn_s,
                   const Rep& traced, const io::SystemSpec& spec,
                   const std::string& system) {
  const auto& coordinator = traced.coordinator;
  const auto& workers = traced.workers;
  const auto value = [](const std::map<std::string, std::uint64_t>& c,
                        const char* name) {
    return static_cast<double>(counter(c, name));
  };

  const GenerationSplit split = split_generations(traced.clock, traced.recorder);
  std::size_t fresh = 0;
  for (const BatchRecord& batch : traced.recorder.batches) fresh += batch.fresh;
  report.metric("dse.evaluations", value(coordinator, "dse.evaluations"),
                "count");
  report.metric("dse.fresh_evaluations", static_cast<double>(fresh), "count");
  report.metric("dse.ga_self_ms", median(split.self_ms), "ms");
  report.metric("dse.executor_ms", median(split.executor_ms), "ms");
  report.metric("dse.barrier_wait_ms", barrier_wait_ms(traced), "ms");
  report.metric("coverage.generation_ratio", split.coverage, "ratio");
  if (split.coverage < 0.99 || split.coverage > 1.01)
    report.note("generation coverage missed: " +
                std::to_string(split.coverage));

  const StageTimes stages = replay_stages(
      spec.arch, spec.apps, replay_selection(traced.recorder, kReplayLimit));
  report_stages(report, stages);

  // Worker-side work counters.
  const double scenarios = value(workers, "analysis.scenarios");
  report.metric("core.scenarios_per_eval",
                ratio(scenarios, static_cast<double>(fresh)), "count");
  report.metric("core.scenario_dedup_ratio",
                ratio(value(workers, "analysis.scenario_dedup_hits"),
                      scenarios),
                "ratio");
  const double l1_hits = value(workers, "cache.eval.hits");
  report.metric("core.l1_hit_ratio",
                ratio(l1_hits, l1_hits + value(workers, "cache.eval.misses")),
                "ratio");
  const double store_hits = value(workers, "store.hits");
  report.metric("core.store_hit_ratio",
                ratio(store_hits, store_hits + value(workers, "store.misses")),
                "ratio");
  report.metric("core.store_appends", value(workers, "store.appends"),
                "count");
  report_sched_counters(report, workers);

  // Store appends replayed into a scratch store.
  {
    const std::string scratch = system + ".scratch-store";
    fs::remove_all(scratch);
    const sched::HolisticAnalysis backend;
    const core::Evaluator evaluator(spec.arch, spec.apps, backend);
    std::vector<double> put_us;
    {
      core::EvalStore store(scratch);
      for (const CapturedRequest& request : traced.recorder.captured) {
        if (!request.fresh) continue;
        const std::uint64_t key = evaluator.candidate_key(request.candidate);
        const auto start = Clock::now();
        store.put(key, request.candidate, request.evaluation);
        put_us.push_back(since(start) * 1e6);
      }
    }
    fs::remove_all(scratch);
    report.metric("core.store_put_us", mean(put_us), "us");
  }

  // The workers' access logs: campaign batches in call order per worker.
  std::map<std::size_t, std::vector<const BatchRecord*>> calls;
  for (const BatchRecord& batch : traced.recorder.batches)
    if (batch.requests > 0) calls[batch.island].push_back(&batch);
  std::vector<double> parse, dispatch, render, io_us;
  double rpc_us = 0.0, remote_us = 0.0, bytes = 0.0, items = 0.0;
  std::size_t matched = 0;
  for (std::size_t w = 0; w < traced.access.size(); ++w) {
    std::size_t next = 0;
    for (const AccessRecord& record : traced.access[w]) {
      if (record.method != "batch" || next >= calls[w].size()) continue;
      const BatchRecord& batch = *calls[w][next++];
      parse.push_back(record.parse_us);
      dispatch.push_back(record.dispatch_us);
      render.push_back(record.render_us);
      io_us.push_back(record.read_us + record.write_us);
      rpc_us += batch.ms() * 1e3;
      remote_us += record.dispatch_us;
      bytes += record.bytes_in + record.bytes_out;
      items += static_cast<double>(batch.requests);
      ++matched;
    }
    if (next != calls[w].size())
      report.note("worker " + std::to_string(w) + " logged " +
                  std::to_string(next) + " of " +
                  std::to_string(calls[w].size()) + " batches");
  }
  report.metric("serve.parse_us.batch", median(parse), "us");
  report.metric("serve.dispatch_us.batch", median(dispatch), "us");
  report.metric("serve.render_us.batch", median(render), "us");
  report.metric("serve.io_us.batch", median(io_us), "us");
  report.metric("serve.bytes_per_req",
                ratio(bytes, static_cast<double>(matched)), "bytes");
  report.metric("serve.error_ratio",
                ratio(value(workers, "serve.errors"),
                      value(workers, "serve.requests")),
                "ratio");

  report.metric("dist.rpc_ms", median(rpc_ms(traced)), "ms");
  report.metric("dist.remote_share", ratio(remote_us, rpc_us), "ratio");
  report.metric("dist.encode_us", median(traced.encode_us), "us");
  report.metric("dist.decode_us", median(traced.decode_us), "us");
  report.metric("dist.spawn_s", spawn_s, "s");
  report.metric("dist.bytes_per_eval", ratio(bytes, items), "bytes");
  report.metric("dist.calls", value(coordinator, "dse.worker.calls"), "count");
  report.metric("dist.retries", value(coordinator, "dse.campaign.retries"),
                "count");
  report.metric("dist.worker_lost", value(coordinator, "dse.worker.lost"),
                "count");
  report.metric("io.parse_ms", parse_ms(system), "ms");
  report.metric("obs.trace_overhead_pct",
                (ratio(mean(traced_s), mean(untraced_s)) - 1.0) * 100.0, "%");
  report.gate(traced.redecode_mismatches == 0,
              std::to_string(traced.redecode_mismatches) +
                  " re-sent batches decoded to different evaluations");
}

}  // namespace

void run_campaign(const Options& options, Report& report) {
  const std::string system = options.run_dir + "/dtmed.ftmc";
  write_seeded_system(benchmarks::dt_med_benchmark(), derive(options.seed, 1),
                      system);
  const io::SystemSpec spec = io::parse_system_file(system);
  const auto island_seeds = [&](std::size_t rep) {
    return std::vector<std::uint64_t>{derive(options.seed, 100 + 2 * rep),
                                      derive(options.seed, 101 + 2 * rep)};
  };

  // Untimed warm-up, which the gate below reuses: the in-process island
  // campaign of the first seed pair with the same migration cadence.
  const sched::HolisticAnalysis backend;
  const dse::Campaign campaign(spec.arch, spec.apps, backend);
  const dse::CampaignResult reference =
      campaign.run(campaign_options(island_seeds(0)));

  // Untraced: one campaign per seed pair, the pairs fixed by --seconds.
  // Traced: untraced and traced campaigns of the first pair alternate; the
  // last traced one captures every request and writes access logs.
  constexpr std::size_t kPairs = 2;
  const std::size_t count = options.trace
                                ? 2 * kPairs
                                : rep_count(options.seconds, kNominalRepSeconds);
  std::vector<std::unique_ptr<Rep>> reps;
  const auto window = Clock::now();
  for (std::size_t r = 0; r < count; ++r) {
    if (since(window) > 3.0 * options.seconds) {
      report.note("stopped after " + std::to_string(r) + " of " +
                  std::to_string(count) + " campaigns (3x --seconds)");
      break;
    }
    const bool traced = options.trace && r % 2 == 1;
    reps.push_back(std::make_unique<Rep>());
    reps.back()->recorder.capture = traced && r + 1 == count;
    if (traced) obs::enable_tracing();
    run_rep(options, system, island_seeds(options.trace ? 0 : r), r,
            reps.back()->recorder.capture, *reps.back());
    if (traced) {
      obs::disable_tracing();
      obs::clear_trace();
    }
  }

  // Gate: the first pair's merged front equals the in-process campaign.
  obs::Json fronts = obs::Json::array();
  obs::Json evaluations = obs::Json::array();
  obs::Json appends = obs::Json::array();
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const Rep& rep = *reps[r];
    if (options.trace || r == 0)
      report.gate(same_front(rep.result.front, reference.front) &&
                      rep.result.evaluations == reference.evaluations,
                  "the distributed front differs from the in-process "
                  "campaign");
    report.attempted += counter(rep.coordinator, "dse.worker.calls");
    report.failed += counter(rep.coordinator, "dse.campaign.retries") +
                     counter(rep.coordinator, "dse.worker.lost");
    fronts.push(obs::Json::object()
                    .set("size", rep.result.front.size())
                    .set("digest", front_digest(rep.result.front)));
    evaluations.push(obs::Json::uinteger(rep.result.evaluations));
    appends.push(obs::Json::uinteger(counter(rep.workers, "store.appends")));
  }
  if (options.trace) {
    for (const auto& rep : reps)
      report.gate(counter(rep->workers, "store.appends") ==
                      counter(reps.front()->workers, "store.appends"),
                  "store.appends differs between campaigns of one seed pair");
    std::vector<double> untraced_s, traced_s;
    for (std::size_t r = 0; r < reps.size(); ++r)
      (r % 2 == 0 ? untraced_s : traced_s).push_back(reps[r]->run_s);
    report_traced(report, untraced_s, traced_s, reps.front()->setup_s,
                  *reps.back(), spec, system);
  } else {
    // Medians over reps: run_s, setup and the rate directly, the
    // percentiles over the median campaign's generations and worker RPCs
    // (median_profile).
    std::vector<double> setup, run_s, peak, rates;
    std::vector<std::vector<double>> generation_ms, batch_ms;
    obs::Json rep_s = obs::Json::array();
    for (const auto& rep : reps) {
      setup.push_back(rep->setup_s);
      run_s.push_back(rep->run_s);
      rep_s.push(obs::Json::number(rep->run_s));
      peak.push_back(rep->peak_rss_mb);
      generation_ms.push_back(rep->clock.generation_ms());
      batch_ms.push_back(rpc_ms(*rep));
      rates.push_back(static_cast<double>(batch_ms.back().size()) /
                      rep->run_s);
    }
    report.metric("setup_s", median(setup), "s");
    report.metric("run_s", median(run_s), "s");
    const std::vector<double> generation = median_profile(generation_ms);
    const std::vector<double> call = median_profile(batch_ms);
    report.metric("gen_p50_ms", median(generation), "ms");
    report.metric("gen_p95_ms", quantile(generation, 0.95), "ms");
    report.metric("req_per_s", median(rates), "1/s");
    report.metric("req_p50_ms", median(call), "ms");
    report.metric("req_p99_ms", quantile(call, 0.99), "ms");
    report.metric("peak_rss_mb", median(peak), "MiB");
    report.info("rep_run_s", std::move(rep_s));
  }
  report.info("workload", context(options, reps.size()));
  report.info("fronts", std::move(fronts));
  report.info("invariants", obs::Json::object()
                                .set("dse.evaluations", evaluations)
                                .set("store.appends", appends));
}

}  // namespace perfbench
