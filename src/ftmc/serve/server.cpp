#include "ftmc/serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ftmc/core/eval_store.hpp"
#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/chromosome.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/export.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/obs/sampler.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/reports.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/sim/prepared_sim.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/log.hpp"
#include "ftmc/util/rng.hpp"

namespace ftmc::serve {
namespace {

struct ServeCounters {
  obs::Counter requests{"serve.requests"};
  obs::Counter errors{"serve.errors"};
  obs::Counter bytes_in{"serve.bytes_in"};
  obs::Counter bytes_out{"serve.bytes_out"};
  obs::Counter connections{"serve.connections"};
  /// Session loops started (TCP connections + fd streams).
  obs::Counter sessions{"serve.sessions"};
  /// Requests currently executing in handle() across all sessions.
  obs::Gauge inflight{"serve.inflight"};
  obs::Counter batch_requests{"serve.batch.requests"};
  obs::Counter batch_items{"serve.batch.items"};
  /// Per-method request-handling latency (parse+dispatch+render, in µs) —
  /// the raw samples are not retained, so p50/p95 come from these buckets
  /// via MetricsSnapshot::quantile (the `metrics` method and ftmc_top.py).
  obs::Histogram latency_ping{"serve.latency.ping"};
  obs::Histogram latency_systems{"serve.latency.systems"};
  obs::Histogram latency_analyze{"serve.latency.analyze"};
  obs::Histogram latency_evaluate{"serve.latency.evaluate"};
  obs::Histogram latency_simulate{"serve.latency.simulate"};
  obs::Histogram latency_batch{"serve.latency.batch"};
  obs::Histogram latency_metrics{"serve.latency.metrics"};
  obs::Histogram latency_health{"serve.latency.health"};
  obs::Histogram latency_shutdown{"serve.latency.shutdown"};
  obs::Histogram latency_other{"serve.latency.other"};

  obs::Histogram& latency_for(const std::string& method) {
    if (method == "analyze") return latency_analyze;
    if (method == "evaluate") return latency_evaluate;
    if (method == "simulate") return latency_simulate;
    if (method == "batch") return latency_batch;
    if (method == "ping") return latency_ping;
    if (method == "metrics") return latency_metrics;
    if (method == "health") return latency_health;
    if (method == "systems") return latency_systems;
    if (method == "shutdown") return latency_shutdown;
    return latency_other;
  }
};

ServeCounters& counters() {
  static ServeCounters instance;
  return instance;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Names the errnos the accept/poll paths care about; falls back to the
/// number for everything else (the strerror text is appended either way).
std::string describe_errno(int err) {
  const char* name = nullptr;
  switch (err) {
    case EINTR: name = "EINTR"; break;
    case EAGAIN: name = "EAGAIN"; break;
    case ECONNABORTED: name = "ECONNABORTED"; break;
    case EMFILE: name = "EMFILE"; break;
    case ENFILE: name = "ENFILE"; break;
    case EBADF: name = "EBADF"; break;
    case EINVAL: name = "EINVAL"; break;
    default: break;
  }
  std::string text = name != nullptr ? std::string(name)
                                     : "errno " + std::to_string(err);
  return text + " (" + std::strerror(err) + ")";
}

/// A request failure tagged with its ftmc.rpc.v1 taxonomy code
/// (docs/PROTOCOL.md): bad_request | unknown_method | version_mismatch |
/// shutting_down | internal.  Handlers that throw a plain
/// std::runtime_error are input-validation failures and map to
/// bad_request; non-runtime exceptions (logic errors, allocation) and
/// store faults map to internal.
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string code, const std::string& message,
               std::string detail = {})
      : std::runtime_error(message),
        code_(std::move(code)),
        detail_(std::move(detail)) {}

  const std::string& code() const noexcept { return code_; }
  const std::string& detail() const noexcept { return detail_; }

 private:
  std::string code_;
  std::string detail_;
};

/// Resolves an exception to its taxonomy code (`detail` receives any
/// extra context a RequestError carried).
std::string error_code_of(const std::exception& error, std::string* detail) {
  if (const auto* typed = dynamic_cast<const RequestError*>(&error)) {
    *detail = typed->detail();
    return typed->code();
  }
  if (dynamic_cast<const core::StoreError*>(&error) != nullptr)
    return "internal";
  if (dynamic_cast<const std::runtime_error*>(&error) != nullptr)
    return "bad_request";
  return "internal";
}

/// A client's numeric id as an int64 when it is integral and in range; the
/// cast is undefined outside [-2^63, 2^63).
std::optional<std::int64_t> integral_id(double number) {
  if (!(number >= -0x1p63 && number < 0x1p63)) return std::nullopt;
  const auto integral = static_cast<std::int64_t>(number);
  if (static_cast<double>(integral) != number) return std::nullopt;
  return integral;
}

/// Echoes the request's "id" (string or number) into the response; absent
/// or other-kind ids echo as null, so a reply always carries the field.
void echo_id(obs::Json& response, const JsonValue* id) {
  if (id != nullptr && id->kind == JsonValue::Kind::kString) {
    response.set("id", id->string);
  } else if (id != nullptr && id->kind == JsonValue::Kind::kNumber) {
    if (const auto integral = integral_id(id->number))
      response.set("id", obs::Json::integer(*integral));
    else
      response.set("id", obs::Json::number(id->number));
  } else {
    response.set("id", obs::Json());
  }
}

/// The request id the observation layer records: the client's "id"
/// rendered as text (strings verbatim, numbers with the same integral
/// round-trip check the echo applies), empty when absent/null — the
/// caller then generates one.  Never echoed into the response, so the
/// response bytes cannot depend on it.
std::string id_text(const JsonValue* id) {
  if (id == nullptr) return {};
  if (id->kind == JsonValue::Kind::kString) return id->string;
  if (id->kind == JsonValue::Kind::kNumber) {
    if (const auto integral = integral_id(id->number))
      return std::to_string(*integral);
    return obs::Json::number(id->number).dump();
  }
  return {};
}

std::uint64_t read_gene(const JsonValue& item, const char* what,
                        std::uint64_t max) {
  if (item.kind != JsonValue::Kind::kNumber)
    throw std::runtime_error(std::string(what) + " entries must be numbers");
  const double value = item.number;
  // Range first: the cast is undefined outside (-1, 2^64).
  if (!(value >= 0 && value <= static_cast<double>(max)) ||
      static_cast<double>(static_cast<std::uint64_t>(value)) != value)
    throw std::runtime_error(std::string(what) +
                             " entries must be integers in [0, " +
                             std::to_string(max) + "]");
  return static_cast<std::uint64_t>(value);
}

std::vector<std::uint8_t> read_bits(const JsonValue* value,
                                    const char* what) {
  if (value == nullptr || value->kind != JsonValue::Kind::kArray)
    throw std::runtime_error(std::string(what) +
                             " must be an array of 0/1 flags");
  std::vector<std::uint8_t> bits;
  bits.reserve(value->array.size());
  for (const JsonValue& item : value->array)
    bits.push_back(static_cast<std::uint8_t>(read_gene(item, what, 1)));
  return bits;
}

/// params.chromosome wire format — the compact row-per-task form remote DSE
/// workers assemble without knowing our struct layout:
///   {"allocation": [0/1 per PE], "keep": [0/1 per graph],
///    "tasks": [[technique, reexec, active_n, base_pe,
///               replica_pe0, replica_pe1, replica_pe2, voter_pe], ...]}
dse::Chromosome read_chromosome(const JsonValue& genes) {
  if (!genes.is_object())
    throw std::runtime_error(
        "params.chromosome must be an object with allocation/keep/tasks");
  dse::Chromosome chromosome;
  chromosome.allocation =
      read_bits(genes.get("allocation"), "params.chromosome.allocation");
  chromosome.keep = read_bits(genes.get("keep"), "params.chromosome.keep");
  const JsonValue* tasks = genes.get("tasks");
  if (tasks == nullptr || tasks->kind != JsonValue::Kind::kArray)
    throw std::runtime_error(
        "params.chromosome.tasks must be an array of 8-gene rows");
  chromosome.tasks.reserve(tasks->array.size());
  for (const JsonValue& row : tasks->array) {
    if (row.kind != JsonValue::Kind::kArray || row.array.size() != 8)
      throw std::runtime_error(
          "params.chromosome.tasks rows must be [technique, reexec, "
          "active_n, base_pe, replica_pe0..2, voter_pe]");
    const char* what = "params.chromosome.tasks";
    dse::TaskGenes task;
    task.technique =
        static_cast<dse::TechniqueGene>(read_gene(row.array[0], what, 3));
    task.reexec = static_cast<std::uint8_t>(
        read_gene(row.array[1], what, dse::kMaxReexecGene));
    task.active_n =
        static_cast<std::uint8_t>(read_gene(row.array[2], what, 3));
    task.base_pe =
        static_cast<std::uint16_t>(read_gene(row.array[3], what, 65535));
    for (std::size_t r = 0; r < dse::kReplicaSlots; ++r)
      task.replica_pe[r] = static_cast<std::uint16_t>(
          read_gene(row.array[4 + r], what, 65535));
    task.voter_pe =
        static_cast<std::uint16_t>(read_gene(row.array[7], what, 65535));
    chromosome.tasks.push_back(task);
  }
  return chromosome;
}

}  // namespace

/// Everything expensive about one system, built once at startup.  Immutable
/// while serving except `prepared` (guarded by prepared_mutex) and the
/// internally synchronized cache/store.
struct Server::ResidentSystem {
  ResidentSystem(std::string path_in, io::SystemSpec spec_in)
      : path(std::move(path_in)), spec(std::move(spec_in)) {}

  std::string path;
  io::SystemSpec spec;
  std::optional<core::Candidate> candidate;
  /// Hardened view + priorities for simulate (absent without a candidate).
  std::optional<hardening::HardenedSystem> hardened;
  std::vector<std::uint32_t> priorities;
  /// The system rendered without its candidate block; params.candidate text
  /// is appended to this and re-parsed, so inline candidates go through
  /// exactly the validation and naming the file parser applies.
  std::string body_text;
  /// Genotype decoder for params.chromosome (same repair as the GA).
  std::unique_ptr<dse::Decoder> decoder;
  std::unique_ptr<core::EvaluationCache> cache;  ///< L1 (optional)
  std::unique_ptr<core::EvalStore> store;        ///< L2 (optional)
  std::unique_ptr<core::Evaluator> evaluator;
  /// One prepared simulation problem per requested hyperperiod count.
  std::mutex prepared_mutex;
  std::map<std::size_t, std::unique_ptr<sim::PreparedSim>> prepared;
};

struct Server::RequestInfo {
  std::string id;            ///< client-supplied or generated ("r<n>")
  std::string method;
  std::string system;
  bool ok = true;
  /// Taxonomy code (docs/PROTOCOL.md) when !ok: bad_request |
  /// unknown_method | version_mismatch | shutting_down | internal.
  std::string error_class;
  bool cache_known = false;  ///< analyze/evaluate report a cache outcome
  bool cache_hit = false;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t read_us = 0;      ///< frame read (includes the wait for it)
  std::uint64_t parse_us = 0;
  std::uint64_t dispatch_us = 0;
  std::uint64_t render_us = 0;
  std::uint64_t write_us = 0;

  /// In-process handling time — what the latency histograms measure
  /// (read/write depend on the peer, not on us).
  std::uint64_t handle_us() const noexcept {
    return parse_us + dispatch_us + render_us;
  }
  std::uint64_t total_us() const noexcept {
    return read_us + handle_us() + write_us;
  }
};

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      started_at_(std::chrono::steady_clock::now()) {
  if (options_.system_paths.empty())
    throw std::runtime_error("serve: no system files given");
  if (options_.max_connections == 0) options_.max_connections = 1;
  if (!options_.access_log.empty()) {
    // O_APPEND and one write() per record: records from concurrent
    // sessions never interleave, and a crash loses at most the line in
    // flight.
    access_log_fd_ = ::open(options_.access_log.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (access_log_fd_ < 0)
      throw std::runtime_error("serve: cannot open access log '" +
                               options_.access_log + "': " +
                               std::strerror(errno));
  }
  if (options_.sample_interval_ms > 0) {
    obs::TimeSeriesSampler::Options sampler_options;
    sampler_options.interval_ms = options_.sample_interval_ms;
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(sampler_options);
    sampler_->start();
  }
  for (const std::string& path : options_.system_paths) {
    for (const auto& loaded : systems_)
      if (loaded->path == path)
        throw std::runtime_error("serve: system '" + path +
                                 "' given more than once");
    const std::vector<std::uint8_t> raw = util::read_file(path);
    auto sys =
        std::make_unique<ResidentSystem>(path, io::parse_system_file(path));
    if (!options_.cache_dir.empty()) {
      // Per-system store: keys hash the candidate only, so unrelated
      // systems must never share one store (see core::store_directory).
      const std::uint64_t digest = util::fnv1a_bytes(raw);
      sys->store = std::make_unique<core::EvalStore>(
          core::store_directory(options_.cache_dir, digest));
    }
    if (options_.enable_cache)
      sys->cache = std::make_unique<core::EvaluationCache>();
    core::Evaluator::Options evaluator_options;
    evaluator_options.cache = sys->cache.get();
    evaluator_options.store = sys->store.get();
    // Same rule as the one-shot CLI: scenarios stay sequential only when
    // the user pinned --threads=1 (results are bitwise identical anyway).
    if (options_.threads != 1) evaluator_options.scenario_pool = &pool_;
    sys->evaluator = std::make_unique<core::Evaluator>(
        sys->spec.arch, sys->spec.apps, backend_, evaluator_options);
    sys->body_text = io::to_text(sys->spec.arch, sys->spec.apps, nullptr);
    sys->decoder =
        std::make_unique<dse::Decoder>(sys->spec.arch, sys->spec.apps);
    if (sys->spec.candidate.has_value()) {
      sys->candidate = *sys->spec.candidate;
      sys->hardened = hardening::apply_hardening(
          sys->spec.apps, sys->candidate->plan, sys->candidate->base_mapping,
          sys->spec.arch.processor_count());
      sys->priorities = sched::assign_priorities(sys->hardened->apps);
    }
    util::log_info("serve: loaded ", path, " (",
                   sys->spec.apps.graph_count(), " applications, candidate ",
                   sys->candidate.has_value() ? "present" : "absent",
                   sys->store != nullptr
                       ? ", store " + sys->store->directory() + ")"
                       : std::string(")"));
    systems_.push_back(std::move(sys));
  }
}

Server::~Server() {
  if (sampler_ != nullptr) sampler_->stop();  // joins the sampling thread
  try {
    flush();
  } catch (const std::exception& error) {
    util::log_warn("serve: flush on shutdown failed: ", error.what());
  }
  if (access_log_fd_ >= 0) ::close(access_log_fd_);
}

bool Server::stopping() const {
  return stop_.load(std::memory_order_relaxed) ||
         (options_.stop_requested && options_.stop_requested()) ||
         (options_.max_requests != 0 &&
          stats_.requests.load(std::memory_order_relaxed) >=
              options_.max_requests);
}

void Server::flush() {
  for (const auto& sys : systems_)
    if (sys->store != nullptr) sys->store->flush();
}

Server::ResidentSystem& Server::resident(const JsonValue& root) {
  const std::string name = root.str_or("system", "");
  if (name.empty()) {
    if (systems_.size() == 1) return *systems_.front();
    throw std::runtime_error(
        "request must name a \"system\" (several are loaded)");
  }
  for (const auto& sys : systems_)
    if (sys->path == name) return *sys;
  throw std::runtime_error("unknown system '" + name +
                           "' (not among the paths given at startup)");
}

core::Candidate Server::request_candidate(ResidentSystem& sys,
                                          const JsonValue& params) {
  const JsonValue* text = params.get("candidate");
  const JsonValue* genes = params.get("chromosome");
  if (text != nullptr && genes != nullptr)
    throw std::runtime_error(
        "give either params.candidate or params.chromosome, not both");
  if (text != nullptr) {
    if (text->kind != JsonValue::Kind::kString)
      throw std::runtime_error(
          "params.candidate must be a string holding a text-format "
          "`candidate { ... }` block");
    std::optional<io::SystemSpec> parsed;
    try {
      parsed.emplace(io::parse_system_string(sys.body_text + "\n" +
                                             text->string + "\n"));
    } catch (const std::exception& error) {
      throw std::runtime_error(std::string("params.candidate: ") +
                               error.what());
    }
    const io::SystemSpec& combined = *parsed;
    // The block is parsed against this system's rendered arch/apps; any
    // text that alters the system itself (extra applications, processors)
    // must not masquerade as a candidate for the resident evaluator.
    if (combined.arch.processor_count() !=
            sys.spec.arch.processor_count() ||
        combined.apps.graph_count() != sys.spec.apps.graph_count() ||
        combined.apps.task_count() != sys.spec.apps.task_count())
      throw std::runtime_error(
          "params.candidate must contain only a candidate block");
    if (!combined.candidate.has_value())
      throw std::runtime_error(
          "params.candidate contains no candidate block");
    return *combined.candidate;
  }
  if (genes != nullptr) {
    dse::Chromosome chromosome = read_chromosome(*genes);
    const dse::ChromosomeShape& shape = sys.decoder->shape();
    if (!dse::shape_ok(chromosome, shape))
      throw std::runtime_error(
          "params.chromosome does not fit system '" + sys.path + "' (" +
          std::to_string(shape.processors) + " processors, " +
          std::to_string(shape.graphs) + " applications, " +
          std::to_string(shape.tasks) + " tasks) or has out-of-range genes");
    // Content-seeded decode, exactly like the GA: identical genotypes
    // repair to identical candidates wherever they are evaluated, so a
    // remote worker and an in-process run agree bitwise (params.seed is
    // the campaign seed; default 0).
    util::Rng rng(dse::chromosome_hash(chromosome, params.u64_or("seed", 0)));
    return sys.decoder->decode(chromosome, rng);
  }
  if (!sys.candidate.has_value())
    throw std::runtime_error(
        "the system file has no candidate block; pass params.candidate or "
        "params.chromosome, add one, or run `ftmc optimize` first");
  return *sys.candidate;
}

struct Server::Evaluated {
  core::Candidate candidate;
  core::Evaluation evaluation;
  bool cache_hit = false;
};

Server::Evaluated Server::evaluate_request(ResidentSystem& sys,
                                           const JsonValue& params,
                                           RequestInfo* info) {
  Evaluated evaluated;
  evaluated.candidate = request_candidate(sys, params);
  if (const auto error = sys.evaluator->structural_error(evaluated.candidate);
      !error.empty())
    throw std::runtime_error("candidate invalid: " + error);
  evaluated.evaluation =
      sys.evaluator->evaluate(evaluated.candidate, &evaluated.cache_hit);
  if (info != nullptr) {
    info->cache_known = true;
    info->cache_hit = evaluated.cache_hit;
  }
  return evaluated;
}

obs::Json Server::handle_analyze(ResidentSystem& sys,
                                 const JsonValue& params,
                                 RequestInfo* info) {
  const Evaluated evaluated = evaluate_request(sys, params, info);
  const core::Evaluation& evaluation = evaluated.evaluation;
  std::ostringstream out;
  write_analyze_report(out, sys.spec, evaluated.candidate, evaluation);
  obs::Json result = obs::Json::object();
  result.set("feasible", evaluation.feasible())
      .set("power", evaluation.power)
      .set("service", evaluation.service)
      .set("scenario_count", evaluation.scenario_count)
      .set("cache_hit", evaluated.cache_hit)
      .set("exit_code", evaluation.feasible() ? 0 : 1)
      .set("output", out.str());
  return result;
}

obs::Json Server::handle_evaluate(ResidentSystem& sys,
                                  const JsonValue& params,
                                  RequestInfo* info) {
  const Evaluated evaluated = evaluate_request(sys, params, info);
  const core::Evaluation& evaluation = evaluated.evaluation;
  obs::Json wcrt = obs::Json::array();
  for (const model::Time bound : evaluation.graph_wcrt)
    wcrt.push(obs::Json::integer(bound));
  obs::Json result = obs::Json::object();
  result.set("mapping_valid", evaluation.mapping_valid)
      .set("reliability_ok", evaluation.reliability_ok)
      .set("normal_schedulable", evaluation.normal_schedulable)
      .set("critical_schedulable", evaluation.critical_schedulable)
      .set("feasible", evaluation.feasible())
      .set("power", evaluation.power)
      .set("service", evaluation.service)
      .set("scenario_count", evaluation.scenario_count)
      .set("scenario_solves", evaluation.scenario_solves)
      .set("graph_wcrt", std::move(wcrt))
      .set("cache_hit", evaluated.cache_hit);
  return result;
}

obs::Json Server::handle_simulate(ResidentSystem& sys,
                                  const JsonValue& params) {
  if (!sys.hardened.has_value())
    throw std::runtime_error(
        "the system file has no candidate block; add one or run "
        "`ftmc optimize` first");
  sim::MonteCarloOptions mc;
  mc.profiles = params.u64_or("profiles", 1000);
  mc.seed = params.u64_or("seed", 1);
  mc.hyperperiods = params.u64_or("hyperperiods", 1);
  mc.threads = options_.threads;
  if (mc.profiles > kMaxSimulateProfiles)
    throw std::runtime_error("params.profiles " + std::to_string(mc.profiles) +
                             " exceeds the cap of " +
                             std::to_string(kMaxSimulateProfiles));
  if (mc.hyperperiods > kMaxSimulateHyperperiods)
    throw std::runtime_error(
        "params.hyperperiods " + std::to_string(mc.hyperperiods) +
        " exceeds the cap of " + std::to_string(kMaxSimulateHyperperiods));
  // fault_prob travels as the user's verbatim string: the report title
  // embeds the spelling (the CLI prints the --fault-prob argument, not a
  // re-formatted double), so a numeric JSON value could not stay
  // byte-identical to the one-shot output.
  if (const JsonValue* p = params.get("fault_prob");
      p != nullptr && p->kind != JsonValue::Kind::kString)
    throw std::runtime_error(
        "params.fault_prob must be a string (the verbatim --fault-prob "
        "spelling, e.g. \"0.3\")");
  const std::string fault_prob = params.str_or("fault_prob", "0.3");
  char* end = nullptr;
  mc.fault_probability = std::strtod(fault_prob.c_str(), &end);
  if (end == fault_prob.c_str() || *end != '\0')
    throw std::runtime_error("params.fault_prob '" + fault_prob +
                             "' is not a number");

  sim::PreparedSim* prepared = nullptr;
  {
    // Concurrent sessions may request the same hyperperiod count at once;
    // the first builds, the rest wait and share.  A PreparedSim is
    // immutable after construction, so the pointer is safe to use outside
    // the lock.
    std::lock_guard lock(sys.prepared_mutex);
    auto& slot = sys.prepared[mc.hyperperiods];
    if (slot == nullptr)
      slot = std::make_unique<sim::PreparedSim>(
          sys.spec.arch, *sys.hardened, sys.candidate->drop, sys.priorities,
          sim::PrepareOptions{mc.hyperperiods, false});
    prepared = slot.get();
  }
  const sim::MonteCarloResult result =
      sim::monte_carlo_wcrt(*prepared, *sys.hardened, mc, &pool_);
  std::ostringstream out;
  write_simulate_report(out, *sys.hardened, result, mc.profiles, fault_prob);
  obs::Json doc = obs::Json::object();
  doc.set("profiles", mc.profiles)
      .set("deadline_miss_profiles", result.deadline_miss_profiles)
      .set("events_processed", result.events_processed)
      .set("output", out.str());
  return doc;
}

obs::Json Server::handle_batch(const JsonValue& params,
                               const std::string& request_id) {
  const JsonValue* items = params.get("requests");
  if (items == nullptr || items->kind != JsonValue::Kind::kArray)
    throw std::runtime_error(
        "params.requests must be an array of request objects");
  counters().batch_requests.add(1);
  counters().batch_items.add(items->array.size());
  std::vector<obs::Json> responses(items->array.size());
  auto run = [&](std::size_t k) {
    const JsonValue& item = items->array[k];
    if (obs::tracing_enabled()) {
      // Derive the sub-request id from the parent so the pool thread's
      // spans correlate with the batch request's access-log record.
      std::string sub =
          id_text(item.is_object() ? item.get("id") : nullptr);
      if (sub.empty()) sub = std::to_string(k);
      obs::trace_instant("serve.request_id", request_id + "#" + sub);
    }
    responses[k] = dispatch(item, /*allow_batch=*/false, nullptr, request_id);
  };
  // Fan the items out across the pool; each response lands in its own slot,
  // so the result array keeps request order no matter the schedule.
  if (pool_.thread_count() > 1 && responses.size() > 1) {
    pool_.parallel_for(responses.size(), run);
  } else {
    for (std::size_t k = 0; k < responses.size(); ++k) run(k);
  }
  obs::Json list = obs::Json::array();
  for (obs::Json& response : responses) list.push(std::move(response));
  return obs::Json::object()
      .set("count", obs::Json::uinteger(items->array.size()))
      .set("results", std::move(list));
}

obs::Json Server::systems_json() const {
  obs::Json list = obs::Json::array();
  for (const auto& sys : systems_)
    list.push(obs::Json::object()
                  .set("system", sys->path)
                  .set("applications", sys->spec.apps.graph_count())
                  .set("candidate", sys->candidate.has_value()));
  return obs::Json::object().set("systems", std::move(list));
}

obs::Json Server::handle_metrics(const JsonValue& params) const {
  const std::string format = params.str_or("format", "json");
  const obs::MetricsSnapshot snap = obs::snapshot();
  if (format == "prometheus")
    return obs::Json::object()
        .set("format", "prometheus")
        .set("body", obs::prometheus_text(snap));
  if (format != "json")
    throw std::runtime_error(
        "params.format must be \"json\" or \"prometheus\"");
  obs::Json result = obs::Json::object();
  result.set("metrics", obs::metrics_to_json(snap));
  if (sampler_ == nullptr) {
    result.set("window", obs::Json());  // sampling off: no windowed view
    return result;
  }
  const obs::TimeSeriesSampler::Window w = sampler_->window(60.0);
  obs::Json rates =
      obs::Json::object()
          .set("requests_per_s",
               obs::Json::number(w.rate("serve.requests"), 3))
          .set("scenarios_per_s",
               obs::Json::number(w.rate("analysis.scenarios"), 3))
          .set("sim_events_per_s",
               obs::Json::number(w.rate("sim.events"), 3));
  obs::Json latency = obs::Json::object();
  static constexpr const char* kMethods[] = {
      "ping",  "systems", "analyze", "evaluate", "simulate",
      "batch", "metrics", "health",  "shutdown", "other"};
  for (const char* m : kMethods) {
    const std::string name = std::string("serve.latency.") + m;
    const obs::MetricValue* hist = w.delta.find(name);
    if (hist == nullptr || hist->value == 0) continue;
    latency.set(
        m, obs::Json::object()
               .set("count", obs::Json::uinteger(hist->value))
               .set("p50_us", obs::Json::number(w.delta.quantile(name, 0.5), 1))
               .set("p95_us",
                    obs::Json::number(w.delta.quantile(name, 0.95), 1)));
  }
  result.set(
      "window",
      obs::Json::object()
          .set("seconds", obs::Json::number(w.seconds, 3))
          .set("samples", obs::Json::uinteger(w.samples))
          .set("rates", std::move(rates))
          .set("cache_hit_rate",
               obs::Json::number(
                   w.hit_rate("cache.eval.hits", "cache.eval.misses"), 4))
          .set("latency", std::move(latency)));
  return result;
}

obs::Json Server::health_json() const {
  obs::Json systems = obs::Json::array();
  for (const auto& sys : systems_) {
    obs::Json entry = obs::Json::object()
                          .set("system", sys->path)
                          .set("candidate", sys->candidate.has_value());
    if (sys->store != nullptr)
      entry.set("store_records",
                obs::Json::uinteger(sys->store->stats().records));
    else
      entry.set("store_records", obs::Json());
    systems.push(std::move(entry));
  }
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_at_)
                            .count();
  return obs::Json::object()
      .set("status", stopping() ? "draining" : "ready")
      .set("uptime_s", obs::Json::number(uptime, 3))
      .set("requests", stats_.requests.load(std::memory_order_relaxed))
      .set("errors", stats_.errors.load(std::memory_order_relaxed))
      .set("inflight", stats_.inflight.load(std::memory_order_relaxed))
      .set("connections",
           stats_.connections.load(std::memory_order_relaxed))
      .set("sampling", sampler_ != nullptr)
      .set("systems", std::move(systems));
}

obs::Json Server::dispatch(const JsonValue& root, bool allow_batch,
                           RequestInfo* info,
                           const std::string& request_id) {
  obs::Json response = obs::Json::object();
  response.set("v", kRpcVersion);
  try {
    if (!root.is_object())
      throw std::runtime_error("request must be a JSON object");
    echo_id(response, root.get("id"));
    // Version gate: top-level requests must carry v; batch items may omit
    // it (they inherit the envelope's, already checked) but must match
    // when present.
    const JsonValue* version = root.get("v");
    if (version == nullptr) {
      if (allow_batch)
        throw RequestError(
            "version_mismatch",
            std::string("request has no \"v\" member; this server speaks ") +
                kRpcVersion);
    } else if (version->kind != JsonValue::Kind::kString ||
               version->string != kRpcVersion) {
      throw RequestError(
          "version_mismatch",
          std::string("unsupported protocol version; this server speaks ") +
              kRpcVersion,
          version->kind == JsonValue::Kind::kString
              ? "got \"" + version->string + "\""
              : "got a non-string \"v\"");
    }
    const std::string method = root.str_or("method", "");
    if (info != nullptr) info->method = method;
    if (method.empty())
      throw std::runtime_error("request has no \"method\" member");
    // Work-bearing methods are refused while draining so a shutdown never
    // queues new analysis behind itself; introspection (ping, health,
    // metrics, systems, shutdown) still answers, which is what
    // lets monitors watch the drain.  Checked at the envelope only: a
    // batch accepted before the drain finishes all of its items.
    if (allow_batch && stopping() &&
        (method == "analyze" || method == "evaluate" ||
         method == "simulate" || method == "batch"))
      throw RequestError(
          "shutting_down",
          "server is draining; method '" + method + "' is refused",
          "introspection methods still answer during the drain");

    static const JsonValue kNoParams{};
    const JsonValue* params = root.get("params");
    if (params != nullptr && !params->is_object() && !params->is_null())
      throw std::runtime_error("\"params\" must be an object");
    const JsonValue& p = params != nullptr ? *params : kNoParams;

    obs::Json result;
    if (method == "ping") {
      result = obs::Json::object().set("pong", true);
    } else if (method == "shutdown") {
      stop_.store(true, std::memory_order_relaxed);
      result = obs::Json::object().set("stopping", true);
    } else if (method == "systems") {
      result = systems_json();
    } else if (method == "metrics") {
      result = handle_metrics(p);
    } else if (method == "health") {
      result = health_json();
    } else if (method == "batch") {
      if (!allow_batch)
        throw std::runtime_error("batch items may not be \"batch\"");
      result = handle_batch(p, request_id);
    } else if (method == "analyze" || method == "evaluate" ||
               method == "simulate") {
      ResidentSystem& sys = resident(root);
      if (info != nullptr) info->system = sys.path;
      if (method == "analyze")
        result = handle_analyze(sys, p, info);
      else if (method == "evaluate")
        result = handle_evaluate(sys, p, info);
      else
        result = handle_simulate(sys, p);
    } else {
      throw RequestError("unknown_method", "unknown method '" + method + "'");
    }
    response.set("ok", true).set("result", std::move(result));
  } catch (const std::exception& error) {
    counters().errors.add(1);
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    std::string detail;
    const std::string code = error_code_of(error, &detail);
    if (info != nullptr) {
      info->ok = false;
      info->error_class = code;
    }
    obs::Json err = obs::Json::object()
                        .set("code", code)
                        .set("message", error.what());
    if (!detail.empty()) err.set("detail", detail);
    response.set("ok", false).set("error", std::move(err));
  }
  return response;
}

std::string Server::handle(const std::string& request) {
  RequestInfo info;
  std::string response = handle_request(request, info);
  finish_request(info);
  return response;
}

std::string Server::handle_request(const std::string& request,
                                   RequestInfo& info) {
  counters().requests.add(1);
  counters().bytes_in.add(request.size());
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  counters().inflight.add(1);
  stats_.inflight.fetch_add(1, std::memory_order_relaxed);
  info.bytes_in = request.size();

  obs::Json response;
  const auto parse_start = std::chrono::steady_clock::now();
  try {
    const JsonValue root = parse_json(request);
    info.parse_us = elapsed_us(parse_start);
    info.id = id_text(root.is_object() ? root.get("id") : nullptr);
    if (info.id.empty())
      info.id = "r" + std::to_string(next_request_id_.fetch_add(
                          1, std::memory_order_relaxed));
    obs::trace_instant("serve.request_id", info.id);
    const auto dispatch_start = std::chrono::steady_clock::now();
    response = dispatch(root, /*allow_batch=*/true, &info, info.id);
    info.dispatch_us = elapsed_us(dispatch_start);
  } catch (const std::exception& error) {
    info.parse_us = elapsed_us(parse_start);
    if (info.id.empty())
      info.id = "r" + std::to_string(next_request_id_.fetch_add(
                          1, std::memory_order_relaxed));
    counters().errors.add(1);
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    info.ok = false;
    info.error_class = "bad_request";
    response = obs::Json::object();
    response.set("v", kRpcVersion);
    response.set("ok", false).set(
        "error", obs::Json::object()
                     .set("code", "bad_request")
                     .set("message", error.what())
                     .set("detail", "the frame payload is not valid JSON"));
  }
  counters().inflight.add(-1);
  stats_.inflight.fetch_sub(1, std::memory_order_relaxed);

  const auto render_start = std::chrono::steady_clock::now();
  std::string text = response.dump();
  info.render_us = elapsed_us(render_start);
  info.bytes_out = text.size();
  counters().bytes_out.add(text.size());
  return text;
}

void Server::finish_request(const RequestInfo& info) {
  counters().latency_for(info.method).record(info.handle_us());
  if (access_log_fd_ >= 0) write_access_record(info);
}

void Server::write_access_record(const RequestInfo& info) {
  const auto ts_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  obs::Json record = obs::Json::object()
                         .set("ts_ms", obs::Json::integer(ts_ms))
                         .set("id", info.id)
                         .set("method", info.method)
                         .set("system", info.system)
                         .set("ok", info.ok);
  if (!info.ok) record.set("error", info.error_class);
  if (info.cache_known)
    record.set("cache", info.cache_hit ? "hit" : "miss");
  record
      .set("bytes_in", obs::Json::uinteger(info.bytes_in))
      .set("bytes_out", obs::Json::uinteger(info.bytes_out))
      .set("us", obs::Json::object()
                     .set("read", obs::Json::uinteger(info.read_us))
                     .set("parse", obs::Json::uinteger(info.parse_us))
                     .set("dispatch", obs::Json::uinteger(info.dispatch_us))
                     .set("render", obs::Json::uinteger(info.render_us))
                     .set("write", obs::Json::uinteger(info.write_us)))
      .set("total_us", obs::Json::uinteger(info.total_us()));
  std::string line = record.dump();
  line.push_back('\n');
  // One write() per record, retrying EINTR (the CLI installs handlers
  // without SA_RESTART); O_APPEND makes concurrent whole-line appends
  // atomic.  A partial write (out of space) finishes the line so the file
  // stays line-framed; a hard failure warns once and drops records.
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t written = ::write(access_log_fd_, data, left);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (!access_log_failed_.exchange(true, std::memory_order_relaxed))
        util::log_warn("serve: access log write failed: ",
                       describe_errno(errno));
      return;
    }
    data += written;
    left -= static_cast<std::size_t>(written);
  }
}

int Server::run_session(int in_fd, int out_fd, bool tcp) {
  counters().sessions.add(1);
  FrameReader reader(in_fd);
  std::string payload;
  for (;;) {
    if (stopping()) break;
    RequestInfo info;
    bool got = false;
    const auto read_start = std::chrono::steady_clock::now();
    try {
      got = reader.read(payload);
    } catch (const ProtocolError& error) {
      // Framing is lost; there is no way to resynchronize the stream.
      if (tcp) {
        util::log_warn("serve: dropping connection: ", error.what());
      } else {
        util::log_error("serve: ", error.what());
      }
      return 1;
    }
    if (!got) {
      if (reader.was_interrupted()) continue;  // re-check stopping()
      break;                                   // clean EOF
    }
    info.read_us = elapsed_us(read_start);
    const std::string response = handle_request(payload, info);
    const auto write_start = std::chrono::steady_clock::now();
    try {
      write_frame(out_fd, response);
    } catch (const ProtocolError& error) {
      info.write_us = elapsed_us(write_start);
      finish_request(info);  // the record still lands in the access log
      if (tcp) {
        util::log_warn("serve: dropping connection: ", error.what());
      } else {
        util::log_warn("serve: ", error.what());
      }
      return 1;
    }
    info.write_us = elapsed_us(write_start);
    finish_request(info);
  }
  return 0;
}

int Server::serve_fd(int in_fd, int out_fd) {
  counters().connections.add(1);
  stats_.connections.fetch_add(1, std::memory_order_relaxed);
  const int exit_code = run_session(in_fd, out_fd, /*tcp=*/false);
  flush();
  return exit_code;
}

int Server::serve_tcp(std::uint16_t port, const std::string& port_file) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0)
    throw std::runtime_error(std::string("serve: socket failed: ") +
                             std::strerror(errno));
  const int enable = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int backlog =
      static_cast<int>(std::max<std::size_t>(8, options_.max_connections));
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, backlog) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd);
    throw std::runtime_error("serve: cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + what);
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port_.store(ntohs(addr.sin_port), std::memory_order_release);
  if (!port_file.empty()) {
    // Atomic write: a client polling the file never reads a partial port.
    const std::string text = std::to_string(bound_port()) + "\n";
    util::write_file_atomic(
        port_file, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()));
  }
  util::log_info("serve: listening on 127.0.0.1:", bound_port(),
                 " (max ", options_.max_connections,
                 " concurrent connections)");

  // One dedicated thread per accepted connection.  Only this acceptor
  // thread mutates the session list or closes a session fd (always after
  // joining its thread), so a kernel-reused fd can never be shut down by
  // mistake; sessions just flag `done` and bump the slot count.
  struct TcpSession {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  // Closing a socket with unread bytes in its receive queue makes the
  // kernel send RST, which can revoke responses the peer has not read yet
  // (a drain legitimately leaves pipelined frames behind).  Half-close the
  // write side so the final response is followed by FIN, discard whatever
  // input is already buffered, then close on an empty queue.
  const auto close_session_fd = [](int fd) {
    ::shutdown(fd, SHUT_WR);
    char discard[4096];
    for (;;) {
      const ssize_t got = ::recv(fd, discard, sizeof(discard), MSG_DONTWAIT);
      if (got > 0) continue;
      if (got < 0 && errno == EINTR) continue;
      break;  // EOF or empty queue: nothing left to trigger an RST
    }
    ::close(fd);
  };
  std::list<TcpSession> sessions;
  std::mutex sessions_mutex;
  std::condition_variable sessions_cv;
  std::size_t active = 0;

  auto reap_finished = [&] {
    std::list<TcpSession> finished;
    {
      std::lock_guard lock(sessions_mutex);
      for (auto it = sessions.begin(); it != sessions.end();) {
        auto next = std::next(it);
        if (it->done.load(std::memory_order_acquire))
          finished.splice(finished.end(), sessions, it);
        it = next;
      }
    }
    for (TcpSession& session : finished) {
      session.thread.join();
      close_session_fd(session.fd);
    }
  };

  int exit_code = 0;
  while (!stopping()) {
    reap_finished();
    {
      std::unique_lock lock(sessions_mutex);
      if (active >= options_.max_connections) {
        // Backpressure: at the cap, stop accepting; pending clients wait
        // in the listen backlog until a session frees the slot (or until
        // the periodic timeout re-checks stopping()).
        sessions_cv.wait_for(lock, std::chrono::milliseconds(200),
                             [&] { return active < options_.max_connections; });
        continue;
      }
    }
    pollfd poll_fd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: re-check stopping()
      util::log_error("serve: poll failed: ", describe_errno(errno));
      exit_code = 1;
      break;
    }
    if (ready == 0) continue;  // timeout: re-check stopping()
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) {
      const int err = errno;
      // Transient per-connection failures (aborted handshake, signal,
      // spurious wakeup) must not end the serve loop.
      if (err == EINTR || err == ECONNABORTED || err == EAGAIN ||
          err == EWOULDBLOCK) {
        util::log_warn("serve: accept: ", describe_errno(err),
                       ", retrying");
        continue;
      }
      util::log_error("serve: accept failed: ", describe_errno(err));
      exit_code = 1;
      break;
    }
    counters().connections.add(1);
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(sessions_mutex);
    sessions.emplace_back();
    TcpSession& session = sessions.back();
    session.fd = conn_fd;
    ++active;
    session.thread = std::thread([this, &session, &sessions_mutex,
                                  &sessions_cv, &active] {
      (void)run_session(session.fd, session.fd, /*tcp=*/true);
      {
        std::lock_guard session_lock(sessions_mutex);
        --active;
      }
      session.done.store(true, std::memory_order_release);
      sessions_cv.notify_one();
    });
  }
  ::close(listen_fd);

  // Graceful drain: half-close every live session so its blocking read
  // returns EOF; in-flight requests finish and their responses still go
  // out on the intact write side.  Then join and close everything.
  {
    std::lock_guard lock(sessions_mutex);
    for (TcpSession& session : sessions)
      if (!session.done.load(std::memory_order_acquire))
        ::shutdown(session.fd, SHUT_RD);
  }
  for (TcpSession& session : sessions) {
    session.thread.join();
    close_session_fd(session.fd);
  }
  flush();
  util::log_info("serve: drained after ",
                 stats_.requests.load(std::memory_order_relaxed),
                 " requests on ",
                 stats_.connections.load(std::memory_order_relaxed),
                 " connections");
  return exit_code;
}

}  // namespace ftmc::serve
