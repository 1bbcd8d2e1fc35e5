// ftmc_perfbench — the repository's benchmark driver (perfbench/run.py
// builds and invokes it; perfbench/README.md describes the workloads and
// metrics).
//
//   ftmc_perfbench --workload dse-dtlarge|campaign-dtmed-2w|serve-cruise-warm
//                  --seed N --seconds S --trace 0|1 --run-dir DIR
//
// Every input is generated from --seed; the run measures for about
// --seconds, checks the outputs, and prints a context line and then the
// result line {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1.  Exit code 0
// only when every correctness gate passed.
#include <csignal>
#include <filesystem>
#include <iostream>
#include <string>

#include "ftmc/util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

// What each end-to-end metric measures on each workload is tabled in
// perfbench/README.md.
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},      {"run_s", "s"},        {"gen_p50_ms", "ms"},
      {"gen_p95_ms", "ms"},  {"req_per_s", "1/s"},  {"req_p50_ms", "ms"},
      {"req_p99_ms", "ms"},  {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  constexpr unsigned kGa = kDse | kCampaign;
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> list = {
        {"dse.evaluations", "count", kGa},
        {"dse.fresh_evaluations", "count", kGa},
        {"dse.ga_self_ms", "ms", kGa},
        {"dse.executor_ms", "ms", kGa},
        {"dse.decode_us", "us", kGa},
        {"dse.pool_efficiency", "ratio", kDse},
        {"dse.barrier_wait_ms", "ms", kCampaign},
        {"hardening.reliability_us", "us", kGa},
        {"hardening.transform_us", "us", kGa},
        {"core.evaluate_p50_us", "us", kGa},
        {"core.evaluate_p99_us", "us", kGa},
        {"core.mc_analysis_us", "us", kGa},
        {"core.objectives_us", "us", kGa},
        {"core.replayed_candidates", "count", kGa},
        {"core.scenarios_per_eval", "count", kGa},
        {"core.scenario_dedup_ratio", "ratio", kGa},
        {"core.l1_hit_ratio", "ratio", kGa},
        {"core.store_hit_ratio", "ratio", kCampaign | kServe},
        {"core.store_appends", "count", kCampaign | kServe},
        {"core.store_find_us", "us", kServe},
        {"core.store_put_us", "us", kCampaign},
        {"sched.prepare_us", "us", kGa},
        {"sched.solve_us", "us", kGa},
        {"sched.solves", "count", kGa},
        {"sched.node_evals", "count", kGa},
        {"sched.warm_replay_ratio", "ratio", kGa},
        {"sched.dup_lane_ratio", "ratio", kGa},
        {"sim.events", "count", kServe},
        {"sim.events_per_s", "1/s", kServe},
        {"sim.prepare_us", "us", kServe},
    };
    for (const char* stage : {"parse", "dispatch", "render", "io"})
      for (const char* method : {"batch", "analyze", "simulate"})
        list.push_back({std::string("serve.") + stage + "_us." + method, "us",
                        std::string(method) == "batch"
                            ? unsigned{kCampaign | kServe}
                            : unsigned{kServe}});
    for (const char* method : {"batch", "analyze", "simulate"})
      list.push_back({std::string("serve.busy_share.") + method, "ratio",
                      kServe});
    const std::vector<MetricSpec> tail = {
        {"serve.wait_ms", "ms", kServe},
        {"serve.bytes_per_req", "bytes", kCampaign | kServe},
        {"serve.error_ratio", "ratio", kCampaign | kServe},
        {"dist.rpc_ms", "ms", kCampaign},
        {"dist.remote_share", "ratio", kCampaign},
        {"dist.encode_us", "us", kCampaign},
        {"dist.decode_us", "us", kCampaign},
        {"dist.spawn_s", "s", kCampaign},
        {"dist.bytes_per_eval", "bytes", kCampaign},
        {"dist.calls", "count", kCampaign},
        {"dist.retries", "count", kCampaign},
        {"dist.worker_lost", "count", kCampaign},
        {"io.parse_ms", "ms"},
        {"obs.trace_overhead_pct", "%"},
        {"coverage.stages_ratio", "ratio", kGa},
        {"coverage.generation_ratio", "ratio", kGa},
        {"coverage.serve_ratio", "ratio", kServe},
    };
    list.insert(list.end(), tail.begin(), tail.end());
    return list;
  }();
  return metrics;
}

namespace {

int usage() {
  std::cerr << "usage: ftmc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --run-dir DIR\n"
               "workloads: dse-dtlarge, campaign-dtmed-2w, serve-cruise-warm\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.run_dir.empty() || options.seconds <= 0.0)
    return usage();

  // A worker that dies mid-call must surface as an error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  ftmc::util::Logger::instance().set_level(ftmc::util::LogLevel::kWarn);

  Report report;
  WorkloadBit workload = kDse;
  try {
    std::filesystem::create_directories(options.run_dir);
    if (options.workload == "dse-dtlarge") {
      run_dse(options, report);
    } else if (options.workload == "campaign-dtmed-2w") {
      workload = kCampaign;
      run_campaign(options, report);
    } else if (options.workload == "serve-cruise-warm") {
      workload = kServe;
      run_serve(options, report);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << '\n';
    return 1;
  }
  report.conform(options.trace ? per_layer_metrics() : end_to_end_metrics(),
                 workload);
  report.print();
  return report.correct() ? 0 : 1;
}
