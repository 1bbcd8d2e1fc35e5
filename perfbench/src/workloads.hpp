// The benchmark's three workloads.  Each fills `report` with its
// end-to-end metrics (untraced) or per-layer metrics (traced), its
// operation counts, and its correctness gates.
#pragma once

#include <vector>

#include "common.hpp"
#include "ftmc/dse/ga.hpp"

namespace perfbench {

/// `ftmc optimize` on DT-large: one in-process GA seed.
void run_dse(const Options& options, Report& report);
/// `ftmc campaign --workers=2` on DT-med: two islands on two workers.
void run_campaign(const Options& options, Report& report);
/// A closed loop of clients against one warm-store `ftmc serve` (Cruise).
void run_serve(const Options& options, Report& report);

/// Per-generation split of wall time into executor time and GA self time.
struct GenerationSplit {
  std::vector<double> generation_ms;
  std::vector<double> executor_ms;
  std::vector<double> self_ms;
  /// (executor + self) / generation time, summed; 1 when every generation
  /// holds its executor calls.
  double coverage = 0.0;
};

/// Attributes each island's executor batches to the generation interval
/// (between consecutive on_generation boundaries) that contains them.
GenerationSplit split_generations(const GenerationClock& clock,
                                  const Recorder& recorder);

/// Front equality: same objective vectors and repaired chromosomes.
bool same_front(const std::vector<ftmc::dse::Individual>& a,
                const std::vector<ftmc::dse::Individual>& b);
/// Content digest of a front, for the context line.
std::uint64_t front_digest(const std::vector<ftmc::dse::Individual>& front);

/// System-file parse time, median of repeated io::parse_system_file, ms.
double parse_ms(const std::string& path);

/// sched.solves, sched.node_evals, sched.warm_replay_ratio and
/// sched.dup_lane_ratio from a counter delta.
void report_sched_counters(Report& report,
                           const std::map<std::string, std::uint64_t>& counters);

/// The benchmark's metrics: every untraced run reports all end-to-end
/// metrics, every traced run all per-layer metrics.  A metric outside its
/// `workloads` mask reads 0 and is listed as idle in the context line.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
