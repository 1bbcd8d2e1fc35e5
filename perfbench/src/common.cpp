#include "common.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "ftmc/dse/decoder.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/util/stats.hpp"

namespace perfbench {

using namespace ftmc;

double since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  return util::percentile(std::move(samples), q);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double total(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double sample : samples) sum += sample;
  return sum;
}

double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : total(samples) / static_cast<double>(samples.size());
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double median_of_quantiles(const std::vector<std::vector<double>>& groups,
                           double q) {
  std::vector<double> per_group;
  for (const std::vector<double>& group : groups)
    if (!group.empty()) per_group.push_back(quantile(group, q));
  return median(std::move(per_group));
}

std::vector<double> median_profile(
    const std::vector<std::vector<double>>& runs) {
  std::vector<double> profile;
  for (std::size_t i = 0;; ++i) {
    std::vector<double> column;
    for (const std::vector<double>& run : runs)
      if (i < run.size()) column.push_back(run[i]);
    if (column.empty()) return profile;
    profile.push_back(median(std::move(column)));
  }
}

std::vector<std::vector<double>> slices(const std::vector<double>& samples,
                                        std::size_t parts) {
  std::vector<std::vector<double>> out(parts);
  for (std::size_t i = 0; i < samples.size(); ++i)
    out[i * parts / samples.size()].push_back(samples[i]);
  return out;
}

std::vector<int> loop_cpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("cannot read the CPU affinity");
  std::vector<int> last_first;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) last_first.push_back(cpu);
  if (last_first.empty())
    throw std::runtime_error("no CPU in the affinity mask");
  std::vector<int> cpus;
  for (std::size_t i = 0; i < count; ++i)
    cpus.push_back(last_first[i % last_first.size()]);
  return cpus;
}

namespace {

void pin_task(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(tid, sizeof(one), &one) != 0)
    throw std::runtime_error("cannot pin task " + std::to_string(tid) +
                             " to CPU " + std::to_string(cpu));
}

}  // namespace

void pin_this_thread(int cpu) { pin_task(0, cpu); }

void pin_process(pid_t pid, int cpu) {
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks))
    pin_task(static_cast<pid_t>(std::stol(entry.path().filename())), cpu);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct streams never share inputs.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) >> 33;
}

std::size_t rep_count(double seconds, double nominal) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(seconds / nominal)));
}

bool same_evaluation(const core::Evaluation& a, const core::Evaluation& b) {
  if (a.graph_wcrt.size() != b.graph_wcrt.size()) return false;
  for (std::size_t g = 0; g < a.graph_wcrt.size(); ++g)
    if (static_cast<double>(a.graph_wcrt[g]) !=
        static_cast<double>(b.graph_wcrt[g]))
      return false;
  return a.mapping_valid == b.mapping_valid &&
         a.reliability_ok == b.reliability_ok &&
         a.normal_schedulable == b.normal_schedulable &&
         a.critical_schedulable == b.critical_schedulable &&
         a.power == b.power && a.service == b.service &&
         a.scenario_count == b.scenario_count &&
         a.scenario_solves == b.scenario_solves;
}

// --- Report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    gate(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.emplace_back(name, obs::Json::object()
                                  .set("value", obs::Json::number(value))
                                  .set("unit", unit));
}

void Report::gate(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::info(const std::string& key, obs::Json value) {
  info_.set(key, std::move(value));
}

void Report::note(const std::string& what) { notes_.push_back(what); }

void Report::conform(const std::vector<MetricSpec>& expected,
                     WorkloadBit workload) {
  std::vector<std::pair<std::string, obs::Json>> ordered;
  for (const MetricSpec& spec : expected) {
    auto found =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const auto& m) { return m.first == spec.name; });
    if (found != metrics_.end()) {
      ordered.push_back(std::move(*found));
      metrics_.erase(found);
      continue;
    }
    if ((spec.workloads & workload) != 0)
      gate(false, "metric " + spec.name + " was never measured");
    else
      idle_.push_back(spec.name);
    ordered.emplace_back(spec.name, obs::Json::object()
                                        .set("value", obs::Json::number(0.0))
                                        .set("unit", spec.unit));
  }
  for (const auto& [name, value] : metrics_)
    gate(false, "metric " + name + " is not in the benchmark's metric list");
  metrics_ = std::move(ordered);
}

void Report::print() const {
  obs::Json notes = obs::Json::array();
  for (const std::string& note : notes_) {
    std::cerr << "perfbench: note: " << note << '\n';
    notes.push(obs::Json::str(note));
  }
  obs::Json gates = obs::Json::array();
  for (const std::string& failure : failures_) {
    std::cerr << "perfbench: gate failed: " << failure << '\n';
    gates.push(obs::Json::str(failure));
  }
  obs::Json idle = obs::Json::array();
  for (const std::string& name : idle_) idle.push(obs::Json::str(name));
  obs::Json context = info_;
  context.set("notes", std::move(notes))
      .set("failed_gates", std::move(gates))
      .set("idle_metrics", std::move(idle));
  std::cout << obs::Json::object().set("context", std::move(context)) << '\n';
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, value] : metrics_) metrics.set(name, value);
  std::cout << obs::Json::object()
                   .set("correct", correct())
                   .set("attempted", attempted)
                   .set("failed", failed)
                   .set("metrics", std::move(metrics))
            << std::endl;
}

// --- Inputs -----------------------------------------------------------------

void write_seeded_system(const benchmarks::Benchmark& benchmark,
                         std::uint64_t seed, const std::string& path) {
  const dse::Decoder decoder(benchmark.arch, benchmark.apps);
  util::Rng rng(seed);
  dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
  const core::Candidate candidate = decoder.decode(chromosome, rng);
  std::ofstream out(path);
  io::write_system(out, benchmark.arch, benchmark.apps, &candidate);
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double peak_rss_mb_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM for process " + std::to_string(pid));
}

// --- Executor wrapper -------------------------------------------------------

namespace {

/// The open "perfbench.generation" span of this thread (spans begin and end
/// on one thread, so each island thread keeps its own).
thread_local std::optional<obs::Span> t_generation_span;

}  // namespace

TimedExecutor::TimedExecutor(std::unique_ptr<dse::Executor> inner,
                             Recorder& recorder, std::size_t island)
    : inner_(std::move(inner)), recorder_(&recorder), island_(island) {}

TimedExecutor::~TimedExecutor() { t_generation_span.reset(); }

void TimedExecutor::evaluate(const std::vector<dse::EvalRequest>& requests,
                             std::vector<dse::EvalOutcome>& outcomes) {
  BatchRecord record;
  record.island = island_;
  record.requests = requests.size();
  {
    obs::Span span("perfbench.executor");
    record.begin = Clock::now();
    inner_->evaluate(requests, outcomes);
    record.end = Clock::now();
  }
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (!outcomes[i].cache_hit) ++record.fresh;

  std::lock_guard lock(recorder_->mutex);
  const std::size_t index = recorder_->batches.size();
  recorder_->batches.push_back(record);
  if (!recorder_->capture) return;
  for (std::size_t i = 0; i < requests.size(); ++i)
    recorder_->captured.push_back(CapturedRequest{
        *requests[i].genotype, *requests[i].candidate, requests[i].key,
        outcomes[i].evaluation, index, !outcomes[i].cache_hit});
}

void GenerationClock::mark(std::size_t shard) {
  t_generation_span.reset();
  t_generation_span.emplace("perfbench.generation");
  std::lock_guard lock(mutex);
  marks[shard].push_back(Clock::now());
}

std::vector<double> GenerationClock::generation_ms() const {
  std::vector<double> durations;
  for (const auto& [shard, times] : marks)
    for (std::size_t i = 1; i < times.size(); ++i)
      durations.push_back(seconds_between(times[i - 1], times[i]) * 1e3);
  return durations;
}

// --- `ftmc serve` child processes -------------------------------------------

ServeProcess::ServeProcess(const Options& options, const std::string& system,
                           const std::string& name,
                           std::vector<std::string> extra, int cpu)
    : port_file_(options.run_dir + "/" + name + ".port") {
  std::remove(port_file_.c_str());
  std::vector<std::string> args = {options.ftmc_binary,
                                   "serve",
                                   system,
                                   "--port=0",
                                   "--port-file=" + port_file_,
                                   "--sample-interval=0",
                                   "--quiet"};
  for (std::string& arg : extra) args.push_back(std::move(arg));
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  cpu_set_t one;
  CPU_ZERO(&one);
  if (cpu >= 0) CPU_SET(cpu, &one);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("cannot fork ftmc serve");
  if (pid_ == 0) {
    // Every thread of the daemon inherits the pin.
    if (cpu >= 0 && ::sched_setaffinity(0, sizeof(one), &one) != 0)
      ::_exit(126);
    // Keep the benchmark's stdout for its result lines.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("ftmc serve (" + name +
                               ") exited during startup");
    }
    std::ifstream in(port_file_);
    long port = 0;
    if (in && (in >> port) && port > 0) {
      port_ = static_cast<std::uint16_t>(port);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
  throw std::runtime_error("ftmc serve (" + name + ") never wrote its port");
}

ServeProcess::~ServeProcess() {
  try {
    stop();
  } catch (const std::exception& error) {
    std::cerr << "perfbench: stopping ftmc serve: " << error.what() << '\n';
  }
}

std::string ServeProcess::endpoint() const {
  return "127.0.0.1:" + std::to_string(port_);
}

std::string ServeProcess::call(const std::string& request) {
  if (connection_ == nullptr)
    connection_ = std::make_unique<dist::WorkerConnection>("127.0.0.1", port_);
  return connection_->call(request);
}

void ServeProcess::wait_ready() { expect_ready(call(kHealthRequest)); }

std::map<std::string, std::uint64_t> ServeProcess::counters() {
  return counters_of_reply(call(kMetricsRequest));
}

void expect_ready(const std::string& reply) {
  const serve::JsonValue root = serve::parse_json(reply);
  const serve::JsonValue* result = root.get("result");
  if (result == nullptr || result->str_or("status", "") != "ready")
    throw std::runtime_error("ftmc serve is not ready");
}

std::map<std::string, std::uint64_t> counters_of_reply(
    const std::string& text) {
  const serve::JsonValue reply = serve::parse_json(text);
  const serve::JsonValue* result = reply.get("result");
  const serve::JsonValue* metrics =
      result == nullptr ? nullptr : result->get("metrics");
  const serve::JsonValue* values =
      metrics == nullptr ? nullptr : metrics->get("counters");
  if (values == nullptr || !values->is_object())
    throw std::runtime_error("ftmc serve answered no metrics counters");
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : values->object)
    out[name] = static_cast<std::uint64_t>(value.number);
  return out;
}

double ServeProcess::stop() {
  if (pid_ <= 0) return peak_rss_mb_;
  try {
    (void)call(R"({"v":"ftmc.rpc.v1","id":"stop","method":"shutdown"})");
  } catch (const std::exception&) {
    // Reaped below; a process that ignores the drain is killed.
  }
  connection_.reset();
  rusage usage{};
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  bool reaped = false;
  while (Clock::now() < deadline) {
    if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    (void)::wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  std::remove(port_file_.c_str());
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return peak_rss_mb_;
}

// --- Counters and access logs -----------------------------------------------

std::uint64_t counter(const std::map<std::string, std::uint64_t>& counters,
                      const std::string& name) {
  const auto found = counters.find(name);
  return found == counters.end() ? 0 : found->second;
}

std::map<std::string, std::uint64_t> counters_of(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricValue& metric : snapshot.metrics)
    if (metric.kind == obs::MetricKind::kCounter)
      out[metric.name] = metric.value;
  return out;
}

std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : after)
    out[name] = value - counter(before, name);
  return out;
}

void add_counters(std::map<std::string, std::uint64_t>& into,
                  const std::map<std::string, std::uint64_t>& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

std::vector<AccessRecord> read_access_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read access log " + path);
  std::vector<AccessRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const serve::JsonValue root = serve::parse_json(line);
    AccessRecord record;
    record.id = root.str_or("id", "");
    record.method = root.str_or("method", "");
    record.ok = root.bool_or("ok", false);
    record.bytes_in = root.num_or("bytes_in", 0.0);
    record.bytes_out = root.num_or("bytes_out", 0.0);
    if (const serve::JsonValue* us = root.get("us"); us != nullptr) {
      record.read_us = us->num_or("read", 0.0);
      record.parse_us = us->num_or("parse", 0.0);
      record.dispatch_us = us->num_or("dispatch", 0.0);
      record.render_us = us->num_or("render", 0.0);
      record.write_us = us->num_or("write", 0.0);
    }
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace perfbench
