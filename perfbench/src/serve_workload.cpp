// serve-cruise-warm: a closed loop of one client connection against one
// `ftmc serve --threads=1 --no-cache` daemon on the Cruise system whose
// --cache-dir store an untimed warm-up pass filled.  The connection sends
// its next request only after the previous reply arrived; client and daemon
// are pinned to one CPU (see loop_cpus).  The seeded mix:
//
//   batch     kBatchItems `evaluate` chromosome items of a recorded Cruise
//             GA run (decode + the store-read path),
//   analyze   one of Table 2's three sample configurations as an inline
//             params.candidate (the text-format parse path; its Algorithm 1
//             verdict is a store hit once the warm-up pass ran it),
//   simulate  Monte-Carlo fault injection at fault_prob 0.3 (the sim kernel).
//
// With the L1 cache off (--no-cache), every evaluate and analyze reads the
// store; with it on, all but the first request of each template would be
// L1 hits and the store would go unread.  Each class must hold at least
// 15% of daemon busy time, or the run fails.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <thread>

#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/core/eval_store.hpp"
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/reports.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ftmc;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kConnections = 1;
constexpr std::size_t kDaemonThreads = 1;
constexpr std::size_t kTrajectoryPopulation = 40;
constexpr std::size_t kTrajectoryGenerations = 40;
/// Chromosome items per `batch` request.  The trajectory is cut into equal
/// batches rather than one per generation, whose sizes follow the GA's memo
/// hits and so would differ from seed to seed.
constexpr std::size_t kBatchItems = 30;
constexpr std::size_t kSimulateSeeds = 4;
/// Simulate requests ask for as many profiles as make about this many
/// simulator events on the seeded candidate, so their cost does not
/// swing with the candidate's size.
constexpr double kSimulateEvents = 4000.0;
/// Request-class weights of the seeded mix (batch, analyze, simulate),
/// chosen so each class holds about a third of daemon busy time on the
/// reference machine (4 cores; measured 0.29-0.41 each).  A change that
/// pushes a class below kMinBusyShare fails the run's gate; rebalance the
/// weights then.
constexpr std::size_t kWeights[3] = {2, 21, 7};
constexpr double kMinBusyShare = 0.15;
constexpr std::size_t kMinRequests = 1000;
/// Daemon starts timed before the loop, and as many after it.
constexpr std::size_t kSetupRepeats = 15;
/// run_s is the time to complete each consecutive block of this many
/// requests.
constexpr std::size_t kRunBlock = 500;
/// Tail percentiles are taken per slice of the loop (in completion order)
/// and reported as the median over slices.
constexpr std::size_t kSlices = 10;

enum Kind : std::size_t { kBatch = 0, kAnalyze = 1, kSimulate = 2 };
constexpr const char* kMethods[3] = {"batch", "analyze", "simulate"};

/// One distinct request: its payload after the id, and what a correct
/// reply must carry.
struct Template {
  Kind kind = kBatch;
  std::string suffix;
  std::vector<core::Candidate> candidates;    ///< batch: decoded items
  std::vector<core::Evaluation> evaluations;  ///< batch: expected results
  std::string output;                         ///< analyze/simulate report
  std::size_t events = 0;                     ///< simulate
};

struct Inputs {
  Inputs(std::string system_in, io::SystemSpec spec_in)
      : system(std::move(system_in)), spec(std::move(spec_in)) {}

  std::string system;
  io::SystemSpec spec;
  std::string prefix;  ///< payload up to the request id
  std::vector<Template> templates;
  std::vector<std::size_t> by_kind[3];
  std::size_t profiles = 0;  ///< per simulate request
  /// Single-threaded replay of the simulate templates (sim.events_per_s).
  double sim_events = 0.0;
  double sim_seconds = 0.0;
  std::vector<double> sim_prepare_us;
  /// The CPU the loop's client thread and daemon share.
  int cpu = -1;
};

/// Splits a request rendered with the id "@" into the shared prefix and
/// this template's suffix.
std::string suffix_of(obs::Json request, std::string* prefix) {
  const std::string text = request.dump();
  const std::string marker = "\"id\":\"@\"";
  const std::size_t at = text.find(marker);
  *prefix = text.substr(0, at + marker.size() - 2);
  return text.substr(at + marker.size() - 1);
}

obs::Json envelope(const char* method, obs::Json params) {
  return obs::Json::object()
      .set("v", serve::kRpcVersion)
      .set("id", "@")
      .set("method", method)
      .set("params", std::move(params));
}

/// Records a Cruise GA run through the executor wrapper; every kBatchItems
/// consecutive requests it evaluated become one `batch` template (a short
/// last one is dropped).
void add_trajectory(Inputs& inputs, std::uint64_t ga_seed) {
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(inputs.spec.arch, inputs.spec.apps, backend);
  util::ThreadPool pool(1);
  Recorder recorder;
  recorder.capture = true;
  dse::CampaignOptions options;
  options.ga.population = kTrajectoryPopulation;
  options.ga.offspring = kTrajectoryPopulation;
  options.ga.generations = kTrajectoryGenerations;
  options.ga.seed = ga_seed;
  options.ga.threads = 1;
  options.executor_factory =
      [&](std::size_t shard) -> std::unique_ptr<dse::Executor> {
    return std::make_unique<TimedExecutor>(
        std::make_unique<dse::InProcessExecutor>(evaluator, pool), recorder,
        shard);
  };
  const dse::Campaign campaign(inputs.spec.arch, inputs.spec.apps, backend);
  (void)campaign.run(options);

  std::map<std::size_t, Template> batches;
  std::map<std::size_t, obs::Json> items;
  const std::size_t count =
      recorder.captured.size() / kBatchItems * kBatchItems;
  for (std::size_t i = 0; i < count; ++i) {
    const CapturedRequest& request = recorder.captured[i];
    Template& batch = batches[i / kBatchItems];
    obs::Json& list = items.try_emplace(i / kBatchItems, obs::Json::array())
                          .first->second;
    list.push(obs::Json::object()
                  .set("id", batch.candidates.size())
                  .set("method", "evaluate")
                  .set("params",
                       obs::Json::object()
                           .set("chromosome",
                                dist::chromosome_json(request.genotype))
                           .set("seed", ga_seed)));
    batch.candidates.push_back(request.candidate);
    batch.evaluations.push_back(request.evaluation);
  }
  for (auto& [index, batch] : batches) {
    batch.kind = kBatch;
    batch.suffix = suffix_of(
        envelope("batch", obs::Json::object().set(
                              "requests", std::move(items.at(index)))),
        &inputs.prefix);
    inputs.by_kind[kBatch].push_back(inputs.templates.size());
    inputs.templates.push_back(std::move(batch));
  }
}

/// Table 2's sample configurations as inline candidate blocks, with the
/// report `ftmc analyze` prints for each.
void add_analyze(Inputs& inputs) {
  const io::SystemSpec& spec = inputs.spec;
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(spec.arch, spec.apps, backend);
  const std::string body = io::to_text(spec.arch, spec.apps, nullptr);
  for (const auto& config :
       benchmarks::cruise_sample_configs(benchmarks::cruise_benchmark())) {
    const std::string block =
        io::to_text(spec.arch, spec.apps, &config.candidate)
            .substr(body.size());
    const io::SystemSpec parsed =
        io::parse_system_string(body + "\n" + block + "\n");
    std::ostringstream report;
    serve::write_analyze_report(report, spec, *parsed.candidate,
                                evaluator.evaluate(*parsed.candidate));
    Template analyze;
    analyze.kind = kAnalyze;
    analyze.suffix = suffix_of(
        envelope("analyze", obs::Json::object().set("candidate", block)),
        &inputs.prefix);
    analyze.output = report.str();
    inputs.by_kind[kAnalyze].push_back(inputs.templates.size());
    inputs.templates.push_back(std::move(analyze));
  }
}

/// Simulate requests on the resident candidate, with the report `ftmc
/// simulate` prints; gates the paper's safety claim on each.
void add_simulate(Inputs& inputs, std::uint64_t seed, Report& report) {
  const io::SystemSpec& spec = inputs.spec;
  const core::Candidate& candidate = *spec.candidate;
  const hardening::HardenedSystem hardened = hardening::apply_hardening(
      spec.apps, candidate.plan, candidate.base_mapping,
      spec.arch.processor_count());
  const std::vector<std::uint32_t> priorities =
      sched::assign_priorities(hardened.apps);
  const sched::HolisticAnalysis backend;
  const core::McAnalysisResult verdict = core::McAnalysis(backend).analyze(
      spec.arch, hardened, candidate.drop, core::McAnalysis::Mode::kProposed);

  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    const sim::PreparedSim prepared(spec.arch, hardened, candidate.drop,
                                    priorities, sim::PrepareOptions{1, false});
    inputs.sim_prepare_us.push_back(since(start) * 1e6);
  }
  const sim::PreparedSim prepared(spec.arch, hardened, candidate.drop,
                                  priorities, sim::PrepareOptions{1, false});
  sim::MonteCarloOptions pilot;
  pilot.profiles = 50;
  pilot.fault_probability = 0.3;
  pilot.seed = derive(seed, 29);
  pilot.threads = 1;
  const double events_per_profile =
      static_cast<double>(
          sim::monte_carlo_wcrt(prepared, hardened, pilot, nullptr)
              .events_processed) /
      static_cast<double>(pilot.profiles);
  inputs.profiles = static_cast<std::size_t>(std::clamp(
      std::llround(kSimulateEvents / std::max(events_per_profile, 1.0)),
      10LL, 2000LL));
  for (std::size_t k = 0; k < kSimulateSeeds; ++k) {
    sim::MonteCarloOptions mc;
    mc.profiles = inputs.profiles;
    mc.fault_probability = 0.3;
    mc.seed = derive(seed, 30 + k);
    mc.threads = 1;
    const auto start = Clock::now();
    const sim::MonteCarloResult result =
        sim::monte_carlo_wcrt(prepared, hardened, mc, nullptr);
    inputs.sim_seconds += since(start);
    inputs.sim_events += static_cast<double>(result.events_processed);

    std::size_t unsafe = 0;
    for (std::uint32_t g = 0; g < hardened.apps.graph_count(); ++g) {
      if (candidate.drop[g] || result.worst_response[g] < 0) continue;
      if (verdict.graph_wcrt(hardened.apps, model::GraphId{g}) <
          result.worst_response[g])
        ++unsafe;
    }
    report.gate(unsafe == 0, "simulated responses exceed the Proposed bound");

    std::ostringstream text;
    serve::write_simulate_report(text, hardened, result, mc.profiles, "0.3");
    Template simulate;
    simulate.kind = kSimulate;
    simulate.suffix = suffix_of(
        envelope("simulate", obs::Json::object()
                                 .set("profiles", mc.profiles)
                                 .set("fault_prob", "0.3")
                                 .set("seed", mc.seed)),
        &inputs.prefix);
    simulate.output = text.str();
    simulate.events = result.events_processed;
    inputs.by_kind[kSimulate].push_back(inputs.templates.size());
    inputs.templates.push_back(std::move(simulate));
  }
}

Inputs make_inputs(const Options& options, Report& report) {
  const std::string system = options.run_dir + "/cruise.ftmc";
  write_seeded_system(benchmarks::cruise_benchmark(), derive(options.seed, 1),
                      system);
  Inputs inputs(system, io::parse_system_file(system));
  inputs.cpu = loop_cpus(1).front();
  add_trajectory(inputs, derive(options.seed, 2));
  add_analyze(inputs);
  add_simulate(inputs, options.seed, report);
  return inputs;
}

std::uint64_t tail_hash(std::string_view reply) {
  const std::size_t at = reply.find("\"ok\"");
  const std::string_view tail =
      at == std::string_view::npos ? reply : reply.substr(at);
  return util::fnv1a_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(tail.data()), tail.size()));
}

struct Sample {
  std::size_t client = 0;
  std::size_t index = 0;  ///< request number on its connection
  std::size_t tmpl = 0;
  double latency_ms = 0.0;
  Clock::time_point done;
  std::uint64_t hash = 0;
  bool ok = false;
};

struct Client {
  std::vector<Sample> samples;
  /// First reply per template, verified in full after the loop.
  std::map<std::size_t, std::string> first;
  bool broken = false;
};

std::string request_id(std::size_t client, std::size_t index) {
  std::string id = std::to_string(client);
  id.insert(id.begin(), 'c');
  return id.append(".").append(std::to_string(index));
}

/// One closed-loop connection until `deadline`.
void drive(const Inputs& inputs, std::uint16_t port, std::size_t id,
           std::uint64_t seed, Clock::time_point deadline, Client& client) {
  util::Rng rng(derive(seed, 40 + id));
  const std::size_t weight = kWeights[0] + kWeights[1] + kWeights[2];
  const auto& batches = inputs.by_kind[kBatch];
  std::size_t next_batch = id * batches.size() / kConnections;
  try {
    pin_this_thread(inputs.cpu);
    dist::WorkerConnection connection("127.0.0.1", port);
    for (std::size_t index = 0; Clock::now() < deadline; ++index) {
      const std::size_t roll = rng.index(weight);
      const Kind kind = roll < kWeights[0]               ? kBatch
                        : roll < kWeights[0] + kWeights[1] ? kAnalyze
                                                           : kSimulate;
      std::size_t tmpl = 0;
      if (kind == kBatch) {
        tmpl = batches[next_batch++ % batches.size()];
      } else {
        const auto& choices = inputs.by_kind[kind];
        tmpl = choices[rng.index(choices.size())];
      }
      const std::string payload =
          inputs.prefix + request_id(id, index) + inputs.templates[tmpl].suffix;
      Sample sample;
      sample.client = id;
      sample.index = index;
      sample.tmpl = tmpl;
      std::string reply;
      {
        obs::Span span("perfbench.request");
        const auto start = Clock::now();
        reply = connection.call(payload);
        sample.done = Clock::now();
        sample.latency_ms = seconds_between(start, sample.done) * 1e3;
      }
      const std::size_t at = reply.find("\"ok\"");
      sample.ok = at != std::string::npos &&
                  reply.compare(at, 9, "\"ok\":true") == 0;
      sample.hash = tail_hash(reply);
      client.first.try_emplace(tmpl, std::move(reply));
      client.samples.push_back(sample);
    }
  } catch (const std::exception&) {
    client.broken = true;
  }
}

/// Why one full reply disagrees with its template's expectation; empty
/// when it agrees.
std::string reply_error(const Template& tmpl, const std::string& reply) {
  const serve::JsonValue root = serve::parse_json(reply);
  const serve::JsonValue* result = root.get("result");
  if (!root.bool_or("ok", false) || result == nullptr) return "not ok";
  if (tmpl.kind != kBatch) {
    if (result->str_or("output", "") != tmpl.output) return "output differs";
    if (tmpl.kind == kSimulate &&
        result->u64_or("events_processed", 0) != tmpl.events)
      return "events_processed differs";
    return "";
  }
  const serve::JsonValue* results = result->get("results");
  if (results == nullptr || results->array.size() != tmpl.evaluations.size())
    return "wrong item count";
  for (std::size_t i = 0; i < tmpl.evaluations.size(); ++i) {
    const serve::JsonValue& item = results->array[i];
    const serve::JsonValue* value = item.get("result");
    if (!item.bool_or("ok", false) || value == nullptr)
      return "item " + std::to_string(i) + " is not ok";
    if (!same_evaluation(dist::evaluation_from_json(*value),
                         tmpl.evaluations[i]))
      return "item " + std::to_string(i) + " differs";
  }
  return "";
}

struct Loop {
  std::vector<Sample> samples;  ///< in completion order
  double seconds = 0.0;         ///< loop start to last completion
  Clock::time_point start;
  std::map<std::string, std::uint64_t> counters;  ///< daemon delta
  double peak_rss_mb = 0.0;
  std::size_t broken = 0;
};

std::vector<std::string> daemon_args(const Options& options,
                                     const std::string& access_log) {
  std::vector<std::string> args = {
      "--threads=" + std::to_string(kDaemonThreads),
      "--cache-dir=" + options.run_dir + "/store", "--no-cache",
      "--max-connections=" + std::to_string(kConnections + 2)};
  if (!access_log.empty()) args.push_back("--access-log=" + access_log);
  return args;
}

/// Spawns a daemon and times it to its first unit of work: system load,
/// store open, health ready, and the PreparedSim build of a 1-profile
/// simulate.
std::unique_ptr<ServeProcess> start_daemon(const Options& options,
                                           const Inputs& inputs,
                                           const std::string& access_log,
                                           double* setup_s) {
  const auto start = Clock::now();
  auto daemon = std::make_unique<ServeProcess>(
      options, inputs.system, "daemon", daemon_args(options, access_log),
      inputs.cpu);
  daemon->wait_ready();
  const serve::JsonValue reply = serve::parse_json(daemon->call(
      R"({"v":"ftmc.rpc.v1","id":"setup","method":"simulate","params":{"profiles":1,"fault_prob":"0.3"}})"));
  if (!reply.bool_or("ok", false))
    throw std::runtime_error("the daemon refused the set-up simulate");
  *setup_s = since(start);
  return daemon;
}

/// The closed loop against `daemon` for `seconds`, then the daemon's
/// counter delta and peak RSS (the daemon is stopped).
Loop run_loop(const Inputs& inputs, ServeProcess& daemon, std::uint64_t seed,
              double seconds, Report& report,
              std::vector<Client>* clients_out) {
  Loop loop;
  const auto before = daemon.counters();
  std::vector<Client> clients(kConnections);
  loop.start = Clock::now();
  const auto deadline =
      loop.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c)
      threads.emplace_back(drive, std::cref(inputs), daemon.port(), c, seed,
                           deadline, std::ref(clients[c]));
    for (std::thread& thread : threads) thread.join();
  }
  loop.counters = counter_delta(before, daemon.counters());
  loop.peak_rss_mb = daemon.stop();

  for (const Client& client : clients) {
    loop.samples.insert(loop.samples.end(), client.samples.begin(),
                        client.samples.end());
    if (client.broken) ++loop.broken;
    for (const auto& [tmpl, reply] : client.first) {
      const std::string error = reply_error(inputs.templates[tmpl], reply);
      report.gate(error.empty(),
                  std::string(kMethods[inputs.templates[tmpl].kind]) +
                      " reply disagrees with the in-process result: " + error);
    }
  }
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> expected;
  for (std::size_t c = 0; c < clients.size(); ++c)
    for (const auto& [tmpl, reply] : clients[c].first)
      expected[{c, tmpl}] = tail_hash(reply);
  std::size_t not_ok = 0;
  std::size_t differing = 0;
  for (const Sample& sample : loop.samples) {
    if (!sample.ok) ++not_ok;
    if (sample.hash != expected[{sample.client, sample.tmpl}]) ++differing;
  }
  report.gate(not_ok == 0, std::to_string(not_ok) + " replies were not ok");
  report.gate(differing == 0,
              std::to_string(differing) +
                  " replies differ from the first reply to the same request");
  report.gate(loop.broken == 0, std::to_string(loop.broken) +
                                    " connections broke during the loop");
  report.attempted += loop.samples.size() + loop.broken;
  report.failed += not_ok + loop.broken;

  std::sort(loop.samples.begin(), loop.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done < b.done; });
  if (!loop.samples.empty())
    loop.seconds = seconds_between(loop.start, loop.samples.back().done);
  if (clients_out != nullptr) *clients_out = std::move(clients);
  return loop;
}

/// Untimed warm-up: every template once, so the store holds every
/// evaluate and analyze verdict before the measured daemons start.
void warm_store(const Options& options, const Inputs& inputs) {
  ServeProcess daemon(options, inputs.system, "warmup",
                      daemon_args(options, ""));
  for (std::size_t t = 0; t < inputs.templates.size(); ++t) {
    const std::string reply =
        daemon.call(inputs.prefix + "w" + std::to_string(t) +
                    inputs.templates[t].suffix);
    if (reply.find("\"ok\":true") == std::string::npos)
      throw std::runtime_error("the warm-up pass got an error reply");
  }
}

obs::Json context(const Options& options, const Inputs& inputs,
                  std::size_t requests) {
  return obs::Json::object()
      .set("workload", options.workload)
      .set("seed", options.seed)
      .set("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .set("connections", kConnections)
      .set("daemon_threads", kDaemonThreads)
      .set("pinned_cpu", inputs.cpu)
      .set("loop", "closed")
      .set("batch_templates", inputs.by_kind[kBatch].size())
      .set("batch_items", kBatchItems)
      .set("simulate_profiles", inputs.profiles)
      .set("weights", obs::Json::array()
                          .push(obs::Json::uinteger(kWeights[0]))
                          .push(obs::Json::uinteger(kWeights[1]))
                          .push(obs::Json::uinteger(kWeights[2])))
      .set("requests", requests);
}

/// Gates each request class at kMinBusyShare of `busy` (per-class time)
/// and returns the shares.
std::vector<double> gate_busy_shares(Report& report, const double busy[3],
                                     const char* measure) {
  const double busy_total = busy[0] + busy[1] + busy[2];
  std::vector<double> shares;
  for (std::size_t m = 0; m < 3; ++m) {
    shares.push_back(ratio(busy[m], busy_total));
    report.gate(shares.back() >= kMinBusyShare,
                std::string(kMethods[m]) + " holds only " +
                    std::to_string(shares.back()) + " of " + measure);
  }
  return shares;
}

void run_untraced(const Options& options, Report& report,
                  const Inputs& inputs) {
  std::vector<double> setup;
  std::unique_ptr<ServeProcess> daemon;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    if (daemon != nullptr) daemon->stop();
    double seconds = 0.0;
    daemon = start_daemon(options, inputs, "", &seconds);
    setup.push_back(seconds);
  }
  const Loop loop =
      run_loop(inputs, *daemon, options.seed, options.seconds, report, nullptr);
  // As many starts again after the loop, so the median spans the run.
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    double seconds = 0.0;
    start_daemon(options, inputs, "", &seconds)->stop();
    setup.push_back(seconds);
  }

  // A failed request counts as taking the whole loop, over any limit.
  std::vector<double> latency, batch_latency, blocks;
  double busy[3] = {0.0, 0.0, 0.0};
  for (const Sample& sample : loop.samples) {
    const double ms = sample.ok ? sample.latency_ms : loop.seconds * 1e3;
    busy[inputs.templates[sample.tmpl].kind] += sample.latency_ms;
    latency.push_back(ms);
    if (inputs.templates[sample.tmpl].kind == kBatch)
      batch_latency.push_back(ms);
  }
  std::vector<double> rates;
  Clock::time_point block_start = loop.start;
  for (std::size_t i = kRunBlock; i <= loop.samples.size(); i += kRunBlock) {
    blocks.push_back(seconds_between(block_start, loop.samples[i - 1].done));
    rates.push_back(static_cast<double>(kRunBlock) / blocks.back());
    block_start = loop.samples[i - 1].done;
  }
  // Medians over blocks and slices of the loop: a stretch of the run that
  // the host disturbed moves no metric.
  report.metric("setup_s", median(setup), "s");
  report.metric("run_s", median(blocks), "s");
  report.metric("gen_p50_ms", median(batch_latency), "ms");
  report.metric("gen_p95_ms",
                median_of_quantiles(slices(batch_latency, kSlices), 0.95),
                "ms");
  report.metric("req_per_s", median(rates), "1/s");
  report.metric("req_p50_ms", median(latency), "ms");
  report.metric("req_p99_ms",
                median_of_quantiles(slices(latency, kSlices), 0.99), "ms");
  report.metric("peak_rss_mb", loop.peak_rss_mb, "MiB");
  report.gate(loop.samples.size() >= kMinRequests,
              "only " + std::to_string(loop.samples.size()) +
                  " requests completed");
  // Untraced runs have no access log; with no more connections than
  // daemon threads nothing queues, so client latency stands in for
  // daemon busy time.
  const std::vector<double> shares =
      gate_busy_shares(report, busy, "client latency");
  report.info("workload", context(options, inputs, loop.samples.size()));
  report.info("busy_share", obs::Json::object()
                                .set(kMethods[0], shares[0])
                                .set(kMethods[1], shares[1])
                                .set(kMethods[2], shares[2]));
}

void run_traced(const Options& options, Report& report, const Inputs& inputs) {
  double setup_s = 0.0;
  const double half = options.seconds / 2.0;
  double untraced_rps = 0.0;
  {
    auto daemon = start_daemon(options, inputs, "", &setup_s);
    const Loop loop =
        run_loop(inputs, *daemon, options.seed, half, report, nullptr);
    untraced_rps = static_cast<double>(loop.samples.size()) / loop.seconds;
  }
  const std::string log = options.run_dir + "/daemon.access.jsonl";
  fs::remove(log);
  auto daemon = start_daemon(options, inputs, log, &setup_s);
  obs::enable_tracing();
  const Loop loop = run_loop(inputs, *daemon, options.seed, half, report,
                             nullptr);
  obs::disable_tracing();
  obs::clear_trace();
  const double traced_rps =
      static_cast<double>(loop.samples.size()) / loop.seconds;

  // Access-log records of the measured requests, by request id.
  std::map<std::string, AccessRecord> records;
  for (AccessRecord& record : read_access_log(log))
    records.emplace(record.id, std::move(record));
  std::vector<double> stage[4][3];  // parse, dispatch, render, io x method
  double client_ms = 0.0, server_ms = 0.0, wait_ms = 0.0, bytes = 0.0;
  double busy[3] = {0.0, 0.0, 0.0};
  std::vector<double> waits;
  std::size_t matched = 0, errors = 0;
  for (const Sample& sample : loop.samples) {
    const auto found = records.find(request_id(sample.client, sample.index));
    if (found == records.end()) continue;
    const AccessRecord& record = found->second;
    const std::size_t kind = inputs.templates[sample.tmpl].kind;
    stage[0][kind].push_back(record.parse_us);
    stage[1][kind].push_back(record.dispatch_us);
    stage[2][kind].push_back(record.render_us);
    stage[3][kind].push_back(record.read_us + record.write_us);
    busy[kind] += record.server_us();
    const double server = record.server_us() / 1e3;
    const double wait = sample.latency_ms - server;
    waits.push_back(wait);
    client_ms += sample.latency_ms;
    server_ms += server;
    wait_ms += std::max(wait, 0.0);
    bytes += record.bytes_in + record.bytes_out;
    if (!record.ok) ++errors;
    ++matched;
  }
  if (matched != loop.samples.size())
    report.note("the access log holds " + std::to_string(matched) + " of " +
                std::to_string(loop.samples.size()) + " requests");
  const char* stages[4] = {"parse", "dispatch", "render", "io"};
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t m = 0; m < 3; ++m)
      report.metric(std::string("serve.") + stages[s] + "_us." + kMethods[m],
                    median(stage[s][m]), "us");
  report.metric("serve.wait_ms", mean(waits), "ms");
  report.metric("serve.bytes_per_req",
                ratio(bytes, static_cast<double>(matched)), "bytes");
  report.metric("serve.error_ratio",
                ratio(static_cast<double>(errors),
                      static_cast<double>(matched)),
                "ratio");
  const double coverage = ratio(server_ms + wait_ms, client_ms);
  report.metric("coverage.serve_ratio", coverage, "ratio");
  if (coverage < 0.99 || coverage > 1.01)
    report.note("serve coverage missed: " + std::to_string(coverage));
  const std::vector<double> shares =
      gate_busy_shares(report, busy, "daemon busy time");
  for (std::size_t m = 0; m < 3; ++m)
    report.metric(std::string("serve.busy_share.") + kMethods[m], shares[m],
                  "ratio");

  const auto& c = loop.counters;
  const double hits = static_cast<double>(counter(c, "store.hits"));
  report.metric("core.store_hit_ratio",
                ratio(hits, hits + static_cast<double>(
                                       counter(c, "store.misses"))),
                "ratio");
  report.metric("core.store_appends",
                static_cast<double>(counter(c, "store.appends")), "count");

  // Replayed store lookups of every evaluate item against the warm store.
  {
    core::EvalStoreOptions read_only;
    read_only.read_only = true;
    core::EvalStore store(
        core::store_directory(options.run_dir + "/store",
                              util::fnv1a_bytes(util::read_file(inputs.system))),
        read_only);
    const sched::HolisticAnalysis backend;
    const core::Evaluator evaluator(inputs.spec.arch, inputs.spec.apps,
                                    backend);
    std::vector<double> find_us;
    std::size_t misses = 0;
    for (const std::size_t t : inputs.by_kind[kBatch])
      for (const core::Candidate& candidate : inputs.templates[t].candidates) {
        const std::uint64_t key = evaluator.candidate_key(candidate);
        const auto start = Clock::now();
        const bool hit = store.find(key, candidate).has_value();
        find_us.push_back(since(start) * 1e6);
        if (!hit) ++misses;
      }
    report.metric("core.store_find_us", mean(find_us), "us");
    if (misses > 0)
      report.note(std::to_string(misses) + " evaluate items missed the store");
  }

  report.metric("sim.events",
                inputs.sim_events / static_cast<double>(kSimulateSeeds),
                "count");
  report.metric("sim.events_per_s", ratio(inputs.sim_events, inputs.sim_seconds),
                "1/s");
  report.metric("sim.prepare_us", median(inputs.sim_prepare_us), "us");
  report.metric("io.parse_ms", parse_ms(inputs.system), "ms");
  report.metric("obs.trace_overhead_pct",
                (ratio(untraced_rps, traced_rps) - 1.0) * 100.0, "%");
  report.info("workload", context(options, inputs, loop.samples.size()));
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  const Inputs inputs = make_inputs(options, report);
  fs::remove_all(options.run_dir + "/store");
  warm_store(options, inputs);
  obs::Json events = obs::Json::array();
  for (const std::size_t t : inputs.by_kind[kSimulate])
    events.push(obs::Json::uinteger(inputs.templates[t].events));
  report.info("invariants", obs::Json::object().set("sim.events", events));
  if (options.trace)
    run_traced(options, report, inputs);
  else
    run_untraced(options, report, inputs);
}

}  // namespace perfbench
