// Shared telemetry surface of the experiment benches.
//
// Every bench ends with one machine-readable line
//
//   JSON: {"bench":"<name>", ...}
//
// built with obs::Json (one escaping/number policy for the whole repo) and
// validated by tools/check_metrics.py in CI.  The reporter also understands
//
//   --metrics-json=FILE   (or env FTMC_METRICS_JSON)
//   --chrome-trace=FILE   (or env FTMC_CHROME_TRACE)
//
// writing the final registry snapshot / Chrome trace next to the bench
// output, so a perf investigation can re-run any bench with full telemetry
// without recompiling anything.  See bench/README.md for the schema.
//
// Budgets (FTMC_GENERATIONS, FTMC_POPULATION, ...) are read with env_or.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "ftmc/obs/export.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/obs/trace.hpp"

namespace ftmc::bench {

/// Positive integer from environment variable `name`, else `fallback`.
inline std::size_t env_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const long parsed = std::atol(raw);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

class Reporter {
 public:
  /// Parse telemetry options; enables span recording immediately when a
  /// trace destination is given (construct before the timed work).
  Reporter(int argc, char** argv) {
    metrics_path_ =
        value_of(argc, argv, "--metrics-json=", "FTMC_METRICS_JSON");
    trace_path_ =
        value_of(argc, argv, "--chrome-trace=", "FTMC_CHROME_TRACE");
    if (!trace_path_.empty()) obs::enable_tracing();
  }

  /// Prints the canonical `JSON: {...}` summary line and writes the
  /// requested side files.  Call once, as the last output of the bench.
  void finish(const obs::Json& summary) const {
    std::cout << "JSON: " << summary << '\n';
    obs::export_metrics_file(metrics_path_);
    obs::export_chrome_trace_file(trace_path_);
  }

 private:
  static std::string value_of(int argc, char** argv, const char* prefix,
                              const char* env) {
    const std::string wanted(prefix);
    for (int i = 1; i < argc; ++i) {
      const std::string arg(argv[i]);
      if (arg.rfind(wanted, 0) == 0) return arg.substr(wanted.size());
    }
    const char* from_env = std::getenv(env);
    return from_env == nullptr ? "" : from_env;
  }

  std::string metrics_path_;
  std::string trace_path_;
};

}  // namespace ftmc::bench
