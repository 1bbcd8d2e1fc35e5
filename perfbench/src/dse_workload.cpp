// dse-dtlarge: the `ftmc optimize --threads=1 --sequential-scenarios` path
// on DT-large (6 heterogeneous PEs, ~45 tasks) — one GA seed through
// dse::Campaign, population = offspring = 100, a cold run-local L1 cache,
// no store — with the whole process pinned to one CPU (see loop_cpus).
// Threads that wait for each other every generation on several CPUs of a
// shared host wait for whichever CPU the host took away, which spread run
// times by 20% and more; on one CPU the run is the work.  Serve, dist,
// store and sim stay idle.
#include <algorithm>
#include <optional>
#include <thread>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ftmc;

// --- Shared by the GA workloads ---------------------------------------------

GenerationSplit split_generations(const GenerationClock& clock,
                                  const Recorder& recorder) {
  GenerationSplit split;
  double covered = 0.0;
  double wall = 0.0;
  for (const auto& [shard, marks] : clock.marks) {
    for (std::size_t g = 1; g < marks.size(); ++g) {
      const double generation = seconds_between(marks[g - 1], marks[g]) * 1e3;
      double executor = 0.0;
      for (const BatchRecord& batch : recorder.batches)
        if (batch.island == shard && batch.begin >= marks[g - 1] &&
            batch.end <= marks[g])
          executor += batch.ms();
      const double self = generation - executor;
      split.generation_ms.push_back(generation);
      split.executor_ms.push_back(executor);
      split.self_ms.push_back(self);
      wall += generation;
      covered += executor + std::max(self, 0.0);
    }
  }
  split.coverage = ratio(covered, wall);
  return split;
}

bool same_front(const std::vector<dse::Individual>& a,
                const std::vector<dse::Individual>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].objectives != b[i].objectives ||
        a[i].chromosome != b[i].chromosome)
      return false;
  return true;
}

std::uint64_t front_digest(const std::vector<dse::Individual>& front) {
  util::Fnv1aHasher hasher(front.size());
  for (const dse::Individual& individual : front) {
    for (const double objective : individual.objectives) hasher.feed(objective);
    hasher.feed(dse::chromosome_hash(individual.chromosome, 0));
  }
  return hasher.digest();
}

double parse_ms(const std::string& path) {
  std::vector<double> samples;
  for (int i = 0; i < 20; ++i) {
    const auto start = Clock::now();
    const io::SystemSpec spec = io::parse_system_file(path);
    samples.push_back(since(start) * 1e3);
  }
  return median(samples);
}

namespace {

constexpr std::size_t kPopulation = 100;
/// Enough generations to cross from the all-infeasible graded-penalty
/// regime into a feasible front.
constexpr std::size_t kGenerations = 300;
/// Seconds of --seconds per GA run.  Every run repeats the workload's one
/// GA seed and reports the median; one takes about 12.5 s on one CPU of
/// the reference machine and a median wants three, so at --seconds 20 a
/// run makes three and measures about 37 s.
constexpr double kSecondsPerRun = 6.5;
/// GA pool threads; the driving thread also drains the pool.  Every thread
/// shares one CPU.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kSetupRepeats = 30;
constexpr std::size_t kReplayLimit = 1500;

core::Evaluator::Options evaluator_options(core::EvaluationCache& cache) {
  core::Evaluator::Options options;
  options.cache = &cache;
  return options;
}

/// Everything `ftmc optimize` builds before its first generation: the
/// parsed system, the backend, the campaign driver, and the executor's
/// pool, cold L1 cache and evaluator.
struct Optimizer {
  explicit Optimizer(const std::string& path)
      : spec(io::parse_system_file(path)),
        campaign(spec.arch, spec.apps, backend),
        pool(kThreads),
        evaluator(spec.arch, spec.apps, backend,
                  evaluator_options(cache)) {}

  io::SystemSpec spec;
  sched::HolisticAnalysis backend;
  dse::Campaign campaign;
  util::ThreadPool pool;
  core::EvaluationCache cache;
  core::Evaluator evaluator;
};

struct Run {
  dse::CampaignResult result;
  double seconds = 0.0;
  Recorder recorder;
  GenerationClock clock;
};

/// One fixed-budget optimize run through the bench-side executor wrapper.
void run_once(Optimizer& optimizer, std::uint64_t ga_seed, Run& run) {
  dse::CampaignOptions options;
  options.ga.population = kPopulation;
  options.ga.offspring = kPopulation;
  options.ga.generations = kGenerations;
  options.ga.seed = ga_seed;
  options.ga.threads = kThreads;
  options.ga.parallel_scenarios = false;
  options.ga.evaluator = optimizer.evaluator.options();
  options.executor_factory =
      [&](std::size_t shard) -> std::unique_ptr<dse::Executor> {
    return std::make_unique<TimedExecutor>(
        std::make_unique<dse::InProcessExecutor>(optimizer.evaluator,
                                                 optimizer.pool),
        run.recorder, shard);
  };
  options.on_generation = [&](std::size_t shard, const dse::GenerationStats&) {
    run.clock.mark(shard);
  };
  obs::Span span("perfbench.workload");
  const auto start = Clock::now();
  run.result = optimizer.campaign.run(options);
  run.seconds = since(start);
}

/// Gate: on every front member the Naive bound is at least Proposed.
void gate_naive_dominates(Report& report, const Optimizer& optimizer,
                          const std::vector<dse::Individual>& front) {
  core::Evaluator::Options naive_options;
  naive_options.mode = core::McAnalysis::Mode::kNaive;
  const core::Evaluator naive(optimizer.spec.arch, optimizer.spec.apps,
                              optimizer.backend, naive_options);
  std::size_t violations = 0;
  for (const dse::Individual& individual : front) {
    const core::Evaluation bound = naive.evaluate_uncached(individual.candidate);
    const auto& proposed = individual.evaluation.graph_wcrt;
    for (std::size_t g = 0; g < proposed.size(); ++g)
      if (bound.graph_wcrt.at(g) < proposed[g]) ++violations;
  }
  report.gate(violations == 0, std::to_string(violations) +
                                   " front graphs have Naive WCRT < Proposed");
}

/// The workload's GA seed.
std::uint64_t ga_seed(const Options& options) {
  return derive(options.seed, 100);
}

obs::Json context(const Options& options, std::size_t reps) {
  return obs::Json::object()
      .set("workload", options.workload)
      .set("seed", options.seed)
      .set("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .set("ga_threads", kThreads)
      .set("executor_pool_threads", kThreads)
      .set("scenarios", "sequential")
      .set("cpus", 1)
      .set("ga_seed", ga_seed(options))
      .set("population", kPopulation)
      .set("generations", kGenerations)
      .set("reps", reps);
}

/// Times kSetupRepeats optimizer constructions into `setup`.  Runs before
/// every GA run and after the last, so the median spans the whole run.
void sample_setup(const std::string& path, std::vector<double>& setup) {
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    auto optimizer = std::make_unique<Optimizer>(path);
    setup.push_back(since(start));
  }
}

void run_untraced(const Options& options, Report& report,
                  const std::string& path) {
  std::vector<double> setup;

  // The seed's GA run, repeated; the count depends on --seconds only.
  const std::size_t reps = rep_count(options.seconds, kSecondsPerRun);
  std::vector<std::unique_ptr<Run>> runs;
  const auto window = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (since(window) > 3.0 * options.seconds) {
      report.note("stopped after " + std::to_string(rep) + " of " +
                  std::to_string(reps) + " GA runs (3x --seconds)");
      break;
    }
    sample_setup(path, setup);
    Optimizer optimizer(path);
    runs.push_back(std::make_unique<Run>());
    run_once(optimizer, ga_seed(options), *runs.back());
  }
  sample_setup(path, setup);

  // Medians over reps: run_s and the rate directly, the percentiles over
  // the median run's generations and executor calls (median_profile).
  std::vector<double> run_s, rates;
  std::vector<std::vector<double>> generation_ms, batch_ms;
  obs::Json fronts = obs::Json::array();
  obs::Json rep_s = obs::Json::array();
  obs::Json evaluations = obs::Json::array();
  for (const auto& run : runs) {
    run_s.push_back(run->seconds);
    rep_s.push(obs::Json::number(run->seconds));
    generation_ms.push_back(run->clock.generation_ms());
    batch_ms.emplace_back();
    for (const BatchRecord& batch : run->recorder.batches)
      batch_ms.back().push_back(batch.ms());
    rates.push_back(static_cast<double>(batch_ms.back().size()) /
                    run->seconds);
    report.attempted += run->result.evaluations;
    evaluations.push(obs::Json::uinteger(run->result.evaluations));
    fronts.push(obs::Json::object()
                    .set("size", run->result.front.size())
                    .set("digest", front_digest(run->result.front)));
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
  report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");

  // Gates, untimed: every repeat of the seed gives the identical front,
  // and the front keeps Naive >= Proposed.
  const dse::CampaignResult& first = runs.front()->result;
  for (const auto& run : runs)
    report.gate(same_front(run->result.front, first.front) &&
                    run->result.evaluations == first.evaluations,
                "a repeated GA run of one seed gave a different front");
  gate_naive_dominates(report, Optimizer(path), first.front);

  report.info("workload", context(options, runs.size()));
  report.info("fronts", std::move(fronts));
  report.info("rep_run_s", std::move(rep_s));
  report.info("invariants",
              obs::Json::object().set("dse.evaluations", evaluations));
}

/// Traced run: untraced and traced GA runs of the first seed alternate
/// (for the tracing overhead); the last traced run captures every request
/// for the per-layer split and the stage replay.
void run_traced(const Options& options, Report& report,
                const std::string& path) {
  constexpr std::size_t kPairs = 2;
  const std::uint64_t seed = ga_seed(options);
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<Run> traced;
  std::map<std::string, std::uint64_t> delta;
  std::vector<dse::Individual> front;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    {
      Optimizer plain(path);
      Run untraced;
      run_once(plain, seed, untraced);
      untraced_s.push_back(untraced.seconds);
      if (pair == 0) front = untraced.result.front;
      report.gate(same_front(untraced.result.front, front),
                  "repeated GA runs of one seed gave different fronts");
    }
    optimizer = std::make_unique<Optimizer>(path);
    traced = std::make_unique<Run>();
    traced->recorder.capture = pair + 1 == kPairs;
    obs::enable_tracing();
    const auto before = counters_of(obs::snapshot());
    run_once(*optimizer, seed, *traced);
    delta = counter_delta(before, counters_of(obs::snapshot()));
    obs::disable_tracing();
    obs::clear_trace();
    traced_s.push_back(traced->seconds);
    report.gate(same_front(traced->result.front, front),
                "the traced front differs from the untraced one");
  }
  gate_naive_dominates(report, *optimizer, front);
  report.attempted = traced->result.evaluations;

  const GenerationSplit split =
      split_generations(traced->clock, traced->recorder);
  std::size_t fresh = 0;
  for (const BatchRecord& batch : traced->recorder.batches)
    fresh += batch.fresh;
  report.metric("dse.evaluations",
                static_cast<double>(counter(delta, "dse.evaluations")),
                "count");
  report.metric("dse.fresh_evaluations", static_cast<double>(fresh), "count");
  report.metric("dse.ga_self_ms", median(split.self_ms), "ms");
  report.metric("dse.executor_ms", median(split.executor_ms), "ms");
  report.metric("coverage.generation_ratio", split.coverage, "ratio");
  if (split.coverage < 0.99 || split.coverage > 1.01)
    report.note("generation coverage missed: " +
                std::to_string(split.coverage));

  const auto selected = replay_selection(traced->recorder, kReplayLimit);
  const StageTimes stages =
      replay_stages(optimizer->spec.arch, optimizer->spec.apps, selected);
  report_stages(report, stages);

  // Pool efficiency over the replayed batches: single-threaded work of
  // the batch over the CPU time the executor had for it (one CPU).
  std::map<std::size_t, double> replayed_us;
  for (std::size_t i = 0; i < selected.size(); ++i)
    replayed_us[selected[i]->batch] += stages.evaluate_us[i];
  double work_us = 0.0;
  double capacity_us = 0.0;
  for (const auto& [batch, us] : replayed_us) {
    work_us += us;
    capacity_us += traced->recorder.batches[batch].ms() * 1e3;
  }
  report.metric("dse.pool_efficiency", ratio(work_us, capacity_us), "ratio");

  const double scenarios =
      static_cast<double>(counter(delta, "analysis.scenarios"));
  report.metric("core.scenarios_per_eval",
                ratio(scenarios, static_cast<double>(fresh)), "count");
  report.metric(
      "core.scenario_dedup_ratio",
      ratio(static_cast<double>(counter(delta, "analysis.scenario_dedup_hits")),
            scenarios),
      "ratio");
  const double hits = static_cast<double>(counter(delta, "cache.eval.hits"));
  const double misses =
      static_cast<double>(counter(delta, "cache.eval.misses"));
  report.metric("core.l1_hit_ratio", ratio(hits, hits + misses), "ratio");
  report_sched_counters(report, delta);
  report.metric("io.parse_ms", parse_ms(path), "ms");
  report.metric("obs.trace_overhead_pct",
                (ratio(mean(traced_s), mean(untraced_s)) - 1.0) * 100.0, "%");

  report.info("workload", context(options, 2 * kPairs));
  report.info("invariants",
              obs::Json::object().set("dse.evaluations",
                                      counter(delta, "dse.evaluations")));
}

}  // namespace

void report_sched_counters(Report& report,
                           const std::map<std::string, std::uint64_t>& c) {
  const auto value = [&](const char* name) {
    return static_cast<double>(counter(c, name));
  };
  report.metric("sched.solves", value("sched.solves"), "count");
  report.metric("sched.node_evals",
                value("sched.worklist.node_evals") +
                    value("sched.batch.node_evals"),
                "count");
  const double replayed = value("sched.warmstart.replayed_nodes");
  report.metric(
      "sched.warm_replay_ratio",
      ratio(replayed, replayed + value("sched.warmstart.affected_nodes")),
      "ratio");
  report.metric("sched.dup_lane_ratio",
                ratio(value("sched.batch.dup_lanes"), value("sched.batch.lanes")),
                "ratio");
}

void run_dse(const Options& options, Report& report) {
  // Before any thread starts, so every thread the run starts inherits it.
  pin_this_thread(loop_cpus(1).front());
  const std::string path = options.run_dir + "/dtlarge.ftmc";
  write_seeded_system(benchmarks::dt_large_benchmark(),
                      derive(options.seed, 1), path);
  if (options.trace)
    run_traced(options, report, path);
  else
    run_untraced(options, report, path);
}

}  // namespace perfbench
