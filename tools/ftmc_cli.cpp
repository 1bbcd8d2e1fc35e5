// ftmc — command-line front end.
//
//   ftmc info <system.ftmc>                  model summary
//   ftmc dot <system.ftmc>                   Graphviz (hardened view when
//                                            the file has a candidate)
//   ftmc analyze <system.ftmc>               Algorithm 1 on the candidate
//   ftmc simulate <system.ftmc> [options]    Monte-Carlo fault injection
//       --profiles=N (default 1000) --fault-prob=P (0.3) --seed=S (1)
//       --threads=N (hardware)
//   ftmc serve <system.ftmc> [options]       long-lived request daemon
//       --port=N --port-file=FILE --stdio --also=FILE,... --cache-dir=DIR
//       --no-cache --max-requests=N --max-connections=N (8) --threads=N
//       --access-log=FILE --sample-interval=MS (1000)
//   ftmc optimize <system.ftmc> [options]    GA design-space exploration
//       --generations=N (60) --population=N (40) --seed=S (42)
//       --seeds=A,B,... (multi-seed campaign) --threads=N (hardware)
//       --checkpoint=FILE --checkpoint-every=N --resume=FILE
//       --max-seconds=S --max-evaluations=N --retries=N
//       --sequential-scenarios --no-dropping --power-only
//       --out=<file> --front-json=<file>
//   ftmc campaign <system.ftmc> [options]    distributed island campaign
//       everything optimize takes, plus --workers=N --worker-hosts=H:P,...
//       --worker-threads=N --migration-every=N (10) --migration-size=N (4)
//   ftmc check PATH...                       validate checkpoints (files)
//                                            and evaluation stores (a store
//                                            directory or a --cache-dir root)
//                                            with the production readers
//
// analyze, simulate, serve, optimize and campaign also take the telemetry
// flags --metrics-json=FILE, --chrome-trace=FILE and --quiet.
//
// All option parsing goes through cli::OptionParser (tools/cli_options.hpp):
// each subcommand registers exactly the options it reads and everything
// else is rejected with the same unknown-option error.
//
// The system file format is documented in ftmc/io/text_format.hpp; `ftmc
// optimize --out=` writes a full system + candidate file that `analyze` and
// `simulate` accept.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_options.hpp"
#include "ftmc/core/eval_store.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dist/worker.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/dse/checkpoint.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/io/dot_export.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/serve/reports.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/log.hpp"
#include "ftmc/util/table.hpp"
#include "ftmc/util/thread_pool.hpp"

using namespace ftmc;

namespace {

/// The command summary.
void print_usage(std::ostream& out) {
  out <<
      "usage: ftmc <command> <system.ftmc> [options]\n"
      "       ftmc [<command>] -h|--help\n"
      "       ftmc check PATH...\n"
      "commands:\n"
      "  info      print a model summary\n"
      "  dot       emit Graphviz (hardened view when a candidate exists)\n"
      "  analyze   run Algorithm 1 on the file's candidate block\n"
      "            [--threads=N]  (parallel transition scenarios)\n"
      "  simulate  Monte-Carlo fault injection on the candidate\n"
      "            [--profiles=N] [--fault-prob=P] [--seed=S]\n"
      "            [--threads=N]\n"
      "  serve     long-lived daemon: load once, answer analyze/simulate/\n"
      "            evaluate requests over length-prefixed JSONL\n"
      "            (tools/serve_client.py is the reference client)\n"
      "            [--port=N] (default 0 = ephemeral) [--port-file=FILE]\n"
      "            [--stdio]  (serve fds 0/1 instead of TCP)\n"
      "            [--also=FILE,...]  (additional resident systems)\n"
      "            [--cache-dir=DIR] [--no-cache] [--max-requests=N]\n"
      "            [--max-connections=N]  (concurrent TCP sessions, def. 8)\n"
      "            [--threads=N]\n"
      "            [--access-log=FILE]  (JSONL per-request records)\n"
      "            [--sample-interval=MS]  (metrics sampler cadence,\n"
      "            default 1000, 0 = off)\n"
      "  optimize  genetic design-space exploration\n"
      "            [--generations=N] [--population=N] [--seed=S]\n"
      "            [--seeds=A,B,...]  (multi-seed campaign, merged front)\n"
      "            [--threads=N] [--sequential-scenarios] [--no-dropping]\n"
      "            [--power-only] [--out=FILE]\n"
      "            [--telemetry-jsonl=FILE]  (per-generation stats stream)\n"
      "            [--front-json=FILE]       (final front as JSON)\n"
      "            [--max-seconds=S] [--max-evaluations=N] [--retries=N]\n"
      "            [--cache-dir=DIR]  (persistent evaluation store shared\n"
      "            across shards, resumes, and `ftmc serve`)\n"
      "  campaign  distributed island-model exploration (same options as\n"
      "            optimize, one island per --seeds entry, plus:)\n"
      "            [--workers=N]  (spawn N local `ftmc serve` workers)\n"
      "            [--worker-hosts=H:P,...]  (connect to external workers)\n"
      "            [--worker-threads=N]  (per spawned worker)\n"
      "            [--migration-every=N]  (island epoch length, default 10;\n"
      "            0 = independent shards, run in seed order)\n"
      "            [--migration-size=N] (default 4)\n"
      "  check     validate ftmc.ckpt.v1 checkpoints (files) and evaluation\n"
      "            stores (a store directory, or a --cache-dir root whose\n"
      "            sys-* children are stores) with the readers optimize and\n"
      "            serve use; one line per valid artifact, exit 1 if any is\n"
      "            damaged\n"
      "checkpointing (optimize/campaign; SIGINT/SIGTERM drain the in-flight\n"
      "generation, write a final snapshot, and exit 0):\n"
      "  --checkpoint=FILE     write ftmc.ckpt.v1 snapshots here\n"
      "  --checkpoint-every=N  snapshot cadence in generations (default 1)\n"
      "  --resume=FILE         continue a checkpointed run (options must\n"
      "                        match the snapshot; mismatches name the field)\n"
      "telemetry (analyze/simulate/serve/optimize/campaign):\n"
      "  --metrics-json=FILE   write the final counter/histogram snapshot\n"
      "  --chrome-trace=FILE   record spans, write Chrome trace-event JSON\n"
      "  --quiet               suppress progress output (results only)\n";
}

/// A malformed command line: the summary on stderr, exit 2.
int usage() {
  print_usage(std::cerr);
  return 2;
}

bool is_help(std::string_view arg) { return arg == "-h" || arg == "--help"; }

core::Candidate require_candidate(const io::SystemSpec& spec) {
  if (!spec.candidate.has_value())
    throw std::runtime_error(
        "the system file has no candidate block; add one or run "
        "`ftmc optimize` first");
  return *spec.candidate;
}

int cmd_dot(const io::SystemSpec& spec, int argc, char** argv) {
  cli::OptionParser parser("dot", argc, argv);
  parser.flag("quiet");
  parser.finish();
  if (spec.candidate.has_value()) {
    const auto system = hardening::apply_hardening(
        spec.apps, spec.candidate->plan, spec.candidate->base_mapping,
        spec.arch.processor_count());
    io::write_dot(std::cout, spec.arch, system);
  } else {
    io::write_dot(std::cout, spec.apps);
  }
  return 0;
}

int cmd_info(const io::SystemSpec& spec, int argc, char** argv) {
  cli::OptionParser parser("info", argc, argv);
  parser.flag("quiet");
  parser.finish();
  std::cout << "platform: " << spec.arch.processor_count()
            << " processors, bandwidth " << spec.arch.bandwidth()
            << " bytes/us\n";
  util::Table table("applications");
  table.set_header({"name", "tasks", "period", "criticality",
                    "total wcet"});
  for (std::uint32_t g = 0; g < spec.apps.graph_count(); ++g) {
    const auto& graph = spec.apps.graph(model::GraphId{g});
    table.add_row({graph.name(), util::Table::cell(graph.task_count()),
                   io::format_time(graph.period()),
                   graph.droppable()
                       ? "droppable (sv " +
                             util::Table::cell(graph.service_value(), 1) + ")"
                       : "critical (f " +
                             util::Table::cell(graph.reliability_constraint(),
                                               14) +
                             ")",
                   io::format_time(graph.total_wcet())});
  }
  table.print(std::cout);
  std::cout << "hyperperiod: " << io::format_time(spec.apps.hyperperiod())
            << "\ncandidate block: "
            << (spec.candidate.has_value() ? "present" : "absent") << '\n';
  return 0;
}

int cmd_analyze(const io::SystemSpec& spec, int argc, char** argv) {
  cli::OptionParser parser("analyze", argc, argv);
  const cli::CommonOptions common = cli::CommonOptions::parse(parser);
  parser.finish();
  const sched::HolisticAnalysis backend;
  const core::Candidate candidate = require_candidate(spec);
  // Transition scenarios are independent; fan them out unless --threads=1.
  std::optional<util::ThreadPool> pool;
  core::Evaluator::Options evaluator_options;
  if (common.threads != 1) {
    pool.emplace(common.threads);
    evaluator_options.scenario_pool = &*pool;
  }
  const core::Evaluator evaluator(spec.arch, spec.apps, backend,
                                  evaluator_options);
  if (const auto error = evaluator.structural_error(candidate);
      !error.empty())
    throw std::runtime_error("candidate invalid: " + error);
  const core::Evaluation evaluation = evaluator.evaluate(candidate);

  // Rendering is shared with `ftmc serve` (byte-identical by construction).
  serve::write_analyze_report(std::cout, spec, candidate, evaluation);
  common.finish_telemetry();
  return evaluation.feasible() ? 0 : 1;
}

int cmd_simulate(const io::SystemSpec& spec, int argc, char** argv) {
  cli::OptionParser parser("simulate", argc, argv);
  const cli::CommonOptions common = cli::CommonOptions::parse(parser);
  sim::MonteCarloOptions options;
  options.profiles = parser.size("profiles", 1000);
  const std::string fault_prob = parser.str("fault-prob", "0.3");
  options.fault_probability = parser.f64("fault-prob", 0.3);
  options.seed = parser.u64("seed", 1);
  options.threads = common.threads;
  parser.finish();
  const core::Candidate candidate = require_candidate(spec);
  const auto system = hardening::apply_hardening(
      spec.apps, candidate.plan, candidate.base_mapping,
      spec.arch.processor_count());
  const auto priorities = sched::assign_priorities(system.apps);
  const auto start = std::chrono::steady_clock::now();
  const auto result = sim::monte_carlo_wcrt(spec.arch, system,
                                            candidate.drop, priorities,
                                            options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Rendering is shared with `ftmc serve` (byte-identical by construction).
  serve::write_simulate_report(std::cout, system, result, options.profiles,
                               fault_prob);
  // Throughput is progress/diagnostic output, not a result: it goes through
  // the leveled logger so --quiet silences it.
  util::log_info("events processed: ", result.events_processed, " (",
                 static_cast<std::size_t>(
                     seconds > 0.0
                         ? static_cast<double>(result.events_processed) /
                               seconds
                         : 0.0),
                 " events/s, ", util::Table::cell(seconds, 3), " s)");
  common.finish_telemetry();
  return 0;
}

// SIGINT/SIGTERM request a graceful drain: the GA finishes the in-flight
// generation, writes a final checkpoint, and optimize exits 0.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_interrupt(int) { g_interrupted = 1; }

// Shared implementation of `optimize` (distributed = false) and `campaign`
// (distributed = true).  Both subcommands parse the same cli::CampaignOptions
// surface through one strict parser; `campaign` additionally reads the
// coordinator/worker flags, runs the island model by default
// (--migration-every=10), and — when --workers/--worker-hosts name a fleet —
// evaluates on remote `ftmc serve` workers through dist::RemoteExecutor.
int run_campaign(const io::SystemSpec& spec, int argc, char** argv,
                 bool distributed) {
  cli::OptionParser parser(distributed ? "campaign" : "optimize", argc, argv);
  const cli::CommonOptions common =
      cli::CommonOptions::parse(parser, /*with_checkpointing=*/true);
  const cli::CampaignOptions cli_options =
      cli::CampaignOptions::parse(parser, distributed);
  parser.finish();

  dse::CampaignOptions campaign_options;
  dse::GaOptions& options = campaign_options.ga;
  options.generations = cli_options.generations;
  options.population = cli_options.population;
  options.offspring = options.population;
  options.seed = cli_options.seed;
  options.threads = common.threads;
  options.parallel_scenarios = !cli_options.sequential_scenarios;
  options.optimize_service = !cli_options.power_only;
  if (cli_options.no_dropping) {
    options.decoder.allow_dropping = false;
    options.evaluator.allow_dropping = false;
  }
  campaign_options.seeds = cli_options.seeds;
  campaign_options.max_seconds = cli_options.max_seconds;
  campaign_options.max_evaluations = cli_options.max_evaluations;
  campaign_options.max_retries = cli_options.max_retries;
  campaign_options.checkpoint_path = common.checkpoint_path();
  campaign_options.checkpoint_every = common.checkpoint_every;
  campaign_options.resume = !common.resume.empty();
  campaign_options.migration_every = cli_options.migration_every;
  campaign_options.migration_size = cli_options.migration_size;
  const std::string jsonl_path = cli_options.telemetry_jsonl;
  const std::string out_path = cli_options.out;
  const std::string front_path = cli_options.front_json;
  const std::string cache_dir = cli_options.cache_dir;

  // Worker fleet: spawn local `ftmc serve` processes and/or connect to
  // external ones, then evaluate every offspring remotely.  Workers re-run
  // the same content-seeded decode, so the campaign trajectory — and the
  // final front — is bitwise identical to the in-process run.
  std::optional<dist::WorkerFleet> fleet;
  if (distributed &&
      (cli_options.workers > 0 || !cli_options.worker_hosts.empty())) {
    dist::WorkerFleetOptions fleet_options;
    fleet_options.system_path = argv[2];
    fleet_options.spawn = cli_options.workers;
    fleet_options.hosts = cli_options.worker_hosts;
    fleet_options.worker_threads = cli_options.worker_threads;
    fleet_options.cache_dir = cache_dir;
    fleet.emplace(std::move(fleet_options));
    util::log_info("worker fleet ready: ", fleet->size(), " worker(s)");
    const std::string system_path = argv[2];
    const std::vector<std::uint64_t> island_seeds =
        cli_options.seeds.empty()
            ? std::vector<std::uint64_t>{cli_options.seed}
            : cli_options.seeds;
    campaign_options.executor_factory = [&fleet, system_path,
                                         island_seeds](std::size_t island) {
      return std::unique_ptr<dse::Executor>(
          std::make_unique<dist::RemoteExecutor>(
              *fleet, fleet->assign(island), system_path,
              island_seeds[island % island_seeds.size()]));
    };
    // Each island drives its own worker; running them concurrently is what
    // buys the distributed speedup (results are island-indexed, so the
    // merged front does not depend on completion order).
    campaign_options.parallel_islands = true;
  }

  // Persistent L2 evaluation store: one store (per system, keyed by the
  // file's content digest) shared by every campaign shard, every resume,
  // and any `ftmc serve` daemon pointed at the same --cache-dir.
  std::optional<core::EvalStore> store;
  if (!cache_dir.empty()) {
    store.emplace(core::store_directory(
        cache_dir, util::fnv1a_bytes(util::read_file(argv[2]))));
    options.evaluator.store = &*store;
    util::log_info("evaluation store at ", store->directory(), " (",
                   store->stats().records, " records)");
  }

  // Per-generation telemetry stream: one JSON object per line, written as
  // each generation completes so a run can be watched (or post-processed)
  // while it is still going.  On resume the restored generations are
  // replayed first, so the stream always covers the whole run.
  std::ofstream jsonl;
  if (!jsonl_path.empty()) {
    jsonl.open(jsonl_path);
    if (!jsonl)
      throw std::runtime_error("cannot write '" + jsonl_path + "': " +
                               std::strerror(errno));
  }
  const bool multi_seed = campaign_options.seeds.size() > 1;
  campaign_options.on_generation = [&](std::size_t shard,
                                       const dse::GenerationStats& stats) {
    if (jsonl.is_open()) {
      obs::Json line = obs::Json::object();
      line.set("shard", shard)
          .set("generation", stats.generation)
          .set("front_size", stats.feasible_in_archive)
          .set("best_feasible_power", stats.best_feasible_power)
          .set("evaluations", stats.evaluations)
          .set("cache_hits", stats.cache_hits)
          .set("cache_misses", stats.cache_misses)
          .set("cache_hit_rate", stats.cache_hit_rate)
          .set("scenarios_analyzed", stats.scenarios_analyzed)
          .set("scenario_solves", stats.scenario_solves)
          .set("scenarios_per_second", stats.scenarios_per_second)
          .set("evaluation_seconds", stats.evaluation_seconds)
          .set("eval_p50_us", stats.eval_p50_us)
          .set("eval_p95_us", stats.eval_p95_us)
          .set("eval_max_us", stats.eval_max_us);
      jsonl << line << '\n' << std::flush;
    }
    if (stats.generation % 10 == 0)
      util::log_info(multi_seed ? "shard " + std::to_string(shard) + ", " : "",
                     "generation ", stats.generation, ", best power ",
                     stats.best_feasible_power, " mW, cache hit rate ",
                     static_cast<int>(stats.cache_hit_rate * 100.0 + 0.5),
                     "%, ",
                     static_cast<std::size_t>(stats.scenarios_per_second),
                     " scenarios/s");
  };

  g_interrupted = 0;
  campaign_options.stop_requested = [] { return g_interrupted != 0; };
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);

  const sched::HolisticAnalysis backend;
  const dse::Campaign campaign(spec.arch, spec.apps, backend);
  const dse::CampaignResult result = campaign.run(campaign_options);

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  for (std::size_t shard = 0; shard < result.shards.size(); ++shard) {
    const auto& cache = result.shards[shard].result.cache;
    util::log_info(multi_seed ? "shard " + std::to_string(shard) + " " : "",
                   "evaluation cache: ", cache.hits, " hits / ",
                   cache.lookups(), " lookups (",
                   static_cast<int>(cache.hit_rate() * 100.0 + 0.5), "%), ",
                   cache.evictions, " evictions");
  }
  if (store.has_value()) {
    const core::EvalStoreStats s = store->stats();
    util::log_info("evaluation store: ", s.hits, " hits / ",
                   s.hits + s.misses, " lookups, ", s.appends,
                   " appends, ", s.records, " records");
  }
  if (result.migration_epochs > 0)
    util::log_info("island migration: ", result.migration_epochs,
                   " barrier(s), ", result.migrants, " migrant(s)");

  if (!front_path.empty()) {
    // Deterministic final-front artifact (the kill-and-resume CI job diffs
    // this against an uninterrupted run; no timestamps, no throughput).
    obs::Json front = obs::Json::array();
    for (const auto& individual : result.front)
      front.push(obs::Json::object()
                     .set("power", individual.evaluation.power)
                     .set("service", individual.evaluation.service));
    obs::Json doc = obs::Json::object();
    doc.set("evaluations", result.evaluations)
        .set("front", std::move(front));
    std::ofstream out(front_path);
    if (!out)
      throw std::runtime_error("cannot write '" + front_path + "': " +
                               std::strerror(errno));
    out << doc << '\n';
  }

  if (result.interrupted || result.budget_exhausted) {
    const std::string reason =
        result.interrupted ? "interrupted" : "budget exhausted";
    if (!campaign_options.checkpoint_path.empty())
      std::cout << reason << " after " << result.evaluations
                << " evaluations; resumable checkpoint(s) at "
                << campaign_options.checkpoint_path
                << " (rerun with --resume=" << campaign_options.checkpoint_path
                << ")\n";
    else
      std::cout << reason << " after " << result.evaluations
                << " evaluations (no --checkpoint given, progress "
                   "discarded)\n";
    common.finish_telemetry();
    return 0;
  }

  if (result.front.empty()) {
    std::cout << "no feasible design found (" << result.evaluations
              << " evaluations) — raise --generations/--population\n";
    common.finish_telemetry();
    return 1;
  }
  util::Table table("Pareto-optimal designs");
  table.set_header({"power [mW]", "service"});
  const dse::Individual* best = &result.front.front();
  for (const auto& individual : result.front) {
    table.add_row({util::Table::cell(individual.evaluation.power, 2),
                   util::Table::cell(individual.evaluation.service, 1)});
    if (individual.evaluation.power < best->evaluation.power)
      best = &individual;
  }
  table.print(std::cout);
  std::cout << result.evaluations << " evaluations\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot write '" + out_path + "'");
    io::write_system(out, spec.arch, spec.apps, &best->candidate);
    std::cout << "lowest-power design written to " << out_path << '\n';
  }
  common.finish_telemetry();
  return 0;
}

int cmd_optimize(const io::SystemSpec& spec, int argc, char** argv) {
  return run_campaign(spec, argc, argv, /*distributed=*/false);
}

int cmd_campaign(const io::SystemSpec& spec, int argc, char** argv) {
  return run_campaign(spec, argc, argv, /*distributed=*/true);
}

// `ftmc serve`: load the system(s) once, keep evaluator/simulator state
// resident, answer requests over the framed JSONL protocol.  SIGINT/SIGTERM
// drain gracefully: sigaction without SA_RESTART so the blocking
// accept/read returns EINTR and the loop re-checks stop_requested.
int cmd_serve(int argc, char** argv) {
  cli::OptionParser parser("serve", argc, argv);
  const cli::CommonOptions common = cli::CommonOptions::parse(parser);

  ftmc::serve::ServeOptions options;
  options.system_paths.emplace_back(argv[2]);
  for (std::string& path : parser.str_list("also"))
    options.system_paths.push_back(std::move(path));
  options.threads = common.threads;
  options.cache_dir = parser.str("cache-dir", "");
  options.enable_cache = !parser.flag("no-cache");
  options.max_requests = parser.size("max-requests", 0);
  options.max_connections = parser.size("max-connections", 8);
  options.access_log = parser.str("access-log", "");
  options.sample_interval_ms = parser.size("sample-interval", 1000);
  const bool stdio = parser.flag("stdio");
  const auto port = static_cast<std::uint16_t>(parser.u64("port", 0));
  const std::string port_file = parser.str("port-file", "");
  parser.finish();

  g_interrupted = 0;
  options.stop_requested = [] { return g_interrupted != 0; };
  struct sigaction action {};
  action.sa_handler = handle_interrupt;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking reads must see EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A client hanging up mid-response must surface as a write error on that
  // connection, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  ftmc::serve::Server server(std::move(options));
  const int code =
      stdio ? server.serve_fd(0, 1) : server.serve_tcp(port, port_file);
  common.finish_telemetry();
  return code;
}

// `ftmc check PATH...`: every argument is an artifact — a regular file is a
// checkpoint, a directory one evaluation store (it holds evals.log) or a
// --cache-dir root whose sys-* children are stores.  The production readers
// do the validation, so the audit can never be laxer than a resume or an
// open.  Each valid artifact prints one stdout line; each damaged one prints
// the reader's error on stderr and makes the exit code 1.
int cmd_check(int argc, char** argv) {
  namespace fs = std::filesystem;
  bool damaged = false;
  const auto report = [&damaged](const std::string& path,
                                 const std::string& error) {
    std::cerr << path << ": " << error << '\n';
    damaged = true;
  };
  const auto check_store = [&](const std::string& dir) {
    try {
      const std::uint64_t records = core::verify_store(dir);
      std::cout << dir << ": evaluation store, " << records << " records\n";
    } catch (const core::StoreError& error) {
      report(dir, error.what());
    }
  };
  for (int i = 2; i < argc; ++i) {
    const std::string path = argv[i];
    std::error_code ignored;
    if (!fs::is_directory(path, ignored)) {
      try {
        const dse::Checkpoint checkpoint = dse::load_checkpoint(path);
        std::cout << path << ": checkpoint v" << dse::kCheckpointVersion
                  << ", generation " << checkpoint.generation << ", "
                  << checkpoint.archive.size() << " archived individuals\n";
      } catch (const dse::CheckpointError& error) {
        report(path, error.what());
      }
      continue;
    }
    if (fs::exists(fs::path(path) / "evals.log", ignored)) {
      check_store(path);
      continue;
    }
    std::vector<std::string> stores;
    for (const fs::directory_entry& entry : fs::directory_iterator(path))
      if (entry.is_directory() &&
          entry.path().filename().string().rfind("sys-", 0) == 0)
        stores.push_back(entry.path().string());
    if (stores.empty())
      report(path, "no evals.log here and no sys-* store children");
    std::sort(stores.begin(), stores.end());
    for (const std::string& store : stores) check_store(store);
  }
  return damaged ? 1 : 0;
}

bool has_flag(int argc, char** argv, const char* name) {
  const std::string wanted = std::string("--") + name;
  for (int i = 3; i < argc; ++i)
    if (wanted == argv[i]) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Asked-for help, as the command or as the first argument after a known
  // one, is an answer: the summary on stdout, exit 0.
  const auto help = [] {
    print_usage(std::cout);
    return 0;
  };
  if (is_help(command)) return help();
  const bool known = command == "info" || command == "dot" ||
                     command == "analyze" || command == "simulate" ||
                     command == "optimize" || command == "campaign" ||
                     command == "serve" || command == "check";
  if (!known) {
    std::cerr << "error: unknown command '" << command << "'\n";
    return usage();
  }
  if (argc >= 3 && is_help(argv[2])) return help();
  // A known command with no file is a targeted complaint, not a usage dump:
  // the user got the command right and only needs the missing piece.
  if (argc < 3) {
    std::cerr << "error: " << command << ": missing "
              << (command == "check" ? "PATH" : "<system.ftmc>")
              << " argument\n";
    return 2;
  }
  // Progress goes through the leveled logger; results go to stdout.
  util::Logger::instance().set_level(has_flag(argc, argv, "quiet")
                                         ? util::LogLevel::kWarn
                                         : util::LogLevel::kInfo);
  try {
    // check reads artifacts, not a system file.
    if (command == "check") return cmd_check(argc, argv);
    {
      // Probe the system file up front so a bad path names the file instead
      // of surfacing as a parse error (or worse, a generic usage message).
      std::ifstream probe(argv[2]);
      if (!probe)
        throw std::runtime_error("cannot read system file '" +
                                 std::string(argv[2]) +
                                 "': " + std::strerror(errno));
    }
    // serve parses (and keeps resident) its own systems — possibly several.
    if (command == "serve") return cmd_serve(argc, argv);
    const io::SystemSpec spec = io::parse_system_file(argv[2]);
    if (command == "info") return cmd_info(spec, argc, argv);
    if (command == "dot") return cmd_dot(spec, argc, argv);
    if (command == "analyze") return cmd_analyze(spec, argc, argv);
    if (command == "simulate") return cmd_simulate(spec, argc, argv);
    if (command == "campaign") return cmd_campaign(spec, argc, argv);
    return cmd_optimize(spec, argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
