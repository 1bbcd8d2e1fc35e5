// Shared pieces of the ftmc benchmark driver: the result line, timing and
// statistics helpers, seeded system files, the bench-side executor wrapper
// that times every Executor::evaluate batch, `ftmc serve` child processes,
// and readers for the daemons' access logs and `metrics` replies.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ftmc/benchmarks/benchmark.hpp"
#include "ftmc/dist/worker.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now.
double since(Clock::time_point start);
/// Seconds from `a` to `b`.
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double total(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);
/// a / b, or 0 when b is 0.
double ratio(double a, double b);
/// Median over `groups` (slices of a loop) of each group's q-quantile: a
/// few disturbed groups cannot move it.
double median_of_quantiles(const std::vector<std::vector<double>>& groups,
                           double q);
/// The median run: element i is the median over `runs` of their element i
/// (over the runs that have one).  Runs of one workload follow the same
/// profile (generation i of each GA seed does similar work), so a run the
/// host disturbed at some point moves no element.
std::vector<double> median_profile(
    const std::vector<std::vector<double>>& runs);
/// `samples`, in time order, cut into `parts` consecutive slices.
std::vector<std::vector<double>> slices(const std::vector<double>& samples,
                                        std::size_t parts);

/// The last `count` CPUs this process may run on (repeating them when it
/// may run on fewer).  A request loop's client and server are pinned to
/// one CPU together, so every request hands over on that CPU instead of
/// waking another, whose wake-up time on a shared host would swamp a
/// sub-millisecond request.
std::vector<int> loop_cpus(std::size_t count);
/// Pins the calling thread to `cpu`.
void pin_this_thread(int cpu);
/// Pins every current thread of process `pid` to `cpu`; threads they
/// start later inherit it.
void pin_process(pid_t pid, int cpu);

/// Independent input seed number `stream` of workload seed `seed`, below
/// 2^31: seeds travel to workers as JSON numbers, which parse as doubles.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Reps a run of `seconds` makes when one rep nominally takes `nominal`
/// seconds on the reference machine (at least 2).  The count depends on
/// the run length only, so every build of the program runs the same seeds.
std::size_t rep_count(double seconds, double nominal);

/// Field-by-field equality of two evaluations, WCRTs compared at the
/// precision they keep through the JSON wire (parsed as doubles).
bool same_evaluation(const ftmc::core::Evaluation& a,
                     const ftmc::core::Evaluation& b);

/// Workload bits of MetricSpec::workloads.
enum WorkloadBit : unsigned { kDse = 1, kCampaign = 2, kServe = 4, kAll = 7 };

/// One metric of the benchmark's list and the workloads that measure it.
struct MetricSpec {
  std::string name;
  std::string unit;
  unsigned workloads = kAll;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (system files, stores, logs).
  std::string run_dir;
  std::string ftmc_binary = FTMC_BINARY;
};

/// The benchmark's output: gates, operation counts, metrics, and the
/// context line (thread counts, invariant counters) printed before the
/// final JSON line.
class Report {
 public:
  /// Records a metric; a value that is not finite fails the run.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness gate; a failed gate fails the run.
  void gate(bool ok, const std::string& what);
  void info(const std::string& key, ftmc::obs::Json value);
  /// A finding that is not a correctness failure (missed coverage, a short
  /// sample); printed to stderr and listed in the context line.
  void note(const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Puts the metrics in the order of `expected`.  A metric of `workload`
  /// that was never measured, or a measured one outside the list, fails
  /// the run; a metric of another workload reads 0 and is listed under
  /// "idle_metrics" in the context line.
  void conform(const std::vector<MetricSpec>& expected, WorkloadBit workload);

  bool correct() const noexcept { return failures_.empty(); }
  /// Prints the context line, gate failures (stderr), and the result line.
  void print() const;

 private:
  std::vector<std::pair<std::string, ftmc::obs::Json>> metrics_;
  ftmc::obs::Json info_ = ftmc::obs::Json::object();
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::vector<std::string> idle_;
};

/// Writes `benchmark` as a system file whose resident candidate is decoded
/// from a random chromosome drawn from `seed`.
void write_seeded_system(const ftmc::benchmarks::Benchmark& benchmark,
                         std::uint64_t seed, const std::string& path);

/// Peak resident set of this process so far, MiB.
double self_peak_rss_mb();
/// Peak resident set (VmHWM) of a live child process, MiB.
double peak_rss_mb_of(pid_t pid);

// --- Executor wrapper -------------------------------------------------------

/// One Executor::evaluate call as the wrapper saw it.
struct BatchRecord {
  std::size_t island = 0;
  Clock::time_point begin;
  Clock::time_point end;
  std::size_t requests = 0;
  std::size_t fresh = 0;  ///< outcomes with cache_hit == false
  double ms() const { return seconds_between(begin, end) * 1e3; }
};

/// One request the executor answered, kept for replays.
struct CapturedRequest {
  ftmc::dse::Chromosome genotype;  ///< pre-repair wire form
  ftmc::core::Candidate candidate;
  std::uint64_t key = 0;
  ftmc::core::Evaluation evaluation;
  std::size_t batch = 0;  ///< index into Recorder::batches
  bool fresh = false;     ///< outcome had cache_hit == false
};

/// Collects batch timings and, when `capture` is set, every request.
/// Thread-safe: islands record concurrently.
struct Recorder {
  bool capture = false;
  std::mutex mutex;
  std::vector<BatchRecord> batches;
  std::vector<CapturedRequest> captured;
  /// Per island: when each of its epochs began (executor built).
  std::map<std::size_t, std::vector<Clock::time_point>> epoch_starts;
};

/// Times every batch handed to `inner` and records it in the recorder.
/// Destroying it closes the generation span GenerationClock opened on
/// this thread (the campaign drops the executor at the end of each epoch,
/// on the island's own thread).
class TimedExecutor final : public ftmc::dse::Executor {
 public:
  TimedExecutor(std::unique_ptr<ftmc::dse::Executor> inner,
                Recorder& recorder, std::size_t island);
  ~TimedExecutor() override;

  TimedExecutor(const TimedExecutor&) = delete;
  TimedExecutor& operator=(const TimedExecutor&) = delete;

  const char* name() const noexcept override { return inner_->name(); }
  void evaluate(const std::vector<ftmc::dse::EvalRequest>& requests,
                std::vector<ftmc::dse::EvalOutcome>& outcomes) override;

 private:
  std::unique_ptr<ftmc::dse::Executor> inner_;
  Recorder* recorder_;
  std::size_t island_;
};

/// Per-shard generation boundaries from CampaignOptions::on_generation.
struct GenerationClock {
  std::mutex mutex;
  /// shard -> time of each on_generation call, in generation order.
  std::map<std::size_t, std::vector<Clock::time_point>> marks;
  /// Records a boundary and starts this thread's next
  /// "perfbench.generation" span.
  void mark(std::size_t shard);
  /// Durations between consecutive marks of each shard, milliseconds.
  std::vector<double> generation_ms() const;
};

// --- `ftmc serve` child processes -------------------------------------------

constexpr const char* kHealthRequest =
    R"({"v":"ftmc.rpc.v1","id":"ready","method":"health"})";
constexpr const char* kMetricsRequest =
    R"({"v":"ftmc.rpc.v1","id":"metrics","method":"metrics"})";

/// Throws unless `reply` is a `health` reply with status "ready".
void expect_ready(const std::string& reply);
/// Counters of a `metrics` reply (name -> value).
std::map<std::string, std::uint64_t> counters_of_reply(
    const std::string& reply);

/// One `ftmc serve` process on an ephemeral loopback port, with its port
/// file and access log in the run directory: the serve daemon, and the
/// campaign's workers in a traced rep (the fleet does not forward
/// --access-log).  The destructor shuts it down and reaps it.
class ServeProcess {
 public:
  /// Spawns `ftmc serve <system> --port=0 --port-file=... <extra>`, pinned
  /// to `cpu` unless it is negative, and blocks until the port file
  /// appears.  Throws on startup failure.
  ServeProcess(const Options& options, const std::string& system,
               const std::string& name, std::vector<std::string> extra,
               int cpu = -1);
  ~ServeProcess();

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  std::string endpoint() const;
  /// One request/response round trip on the process's own connection.
  std::string call(const std::string& request);
  /// Blocks until `health` answers ready.
  void wait_ready();
  /// Counters of the `metrics` method (name -> value).
  std::map<std::string, std::uint64_t> counters();
  /// Sends shutdown, reaps the process, returns its peak RSS in MiB.
  double stop();

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<ftmc::dist::WorkerConnection> connection_;
  double peak_rss_mb_ = 0.0;
};

/// counters[name] or 0.
std::uint64_t counter(const std::map<std::string, std::uint64_t>& counters,
                      const std::string& name);
/// Counter values of an in-process snapshot.
std::map<std::string, std::uint64_t> counters_of(
    const ftmc::obs::MetricsSnapshot& snapshot);
/// after - before, per counter.
std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after);
/// Element-wise sum.
void add_counters(std::map<std::string, std::uint64_t>& into,
                  const std::map<std::string, std::uint64_t>& from);

/// One `ftmc serve --access-log` record.
struct AccessRecord {
  std::string id;
  std::string method;
  bool ok = true;
  double bytes_in = 0, bytes_out = 0;
  double read_us = 0, parse_us = 0, dispatch_us = 0, render_us = 0,
         write_us = 0;
  /// From the end of the frame read to the end of the reply write.
  double server_us() const {
    return parse_us + dispatch_us + render_us + write_us;
  }
};

std::vector<AccessRecord> read_access_log(const std::string& path);

}  // namespace perfbench
