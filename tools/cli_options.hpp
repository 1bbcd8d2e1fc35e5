// Unified command-line option handling for the ftmc tool.
//
// Every subcommand builds one OptionParser, reads its options through the
// typed accessors (which register the option as known), and calls finish()
// exactly once at the end.  finish() walks the raw argument list and
// rejects anything that is not a registered `--key=value` or `--flag` —
// with the same message shape for every subcommand, so a typo fails loudly
// and identically everywhere.  Typed accessors also turn malformed values
// into errors that name the offending option instead of a bare
// std::invalid_argument from the bowels of std::stoul.
//
// CommonOptions carries the surface shared by every heavy subcommand
// (--threads, --metrics-json, --chrome-trace, --quiet) plus checkpointing
// (--checkpoint, --checkpoint-every, --resume) for the commands that opt
// into it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/obs/export.hpp"
#include "ftmc/obs/trace.hpp"

namespace cli {

class OptionParser {
 public:
  /// Arguments from index `first` on belong to the subcommand (`argv[1]` is
  /// the command, `argv[2]` the system file).
  OptionParser(std::string command, int argc, char** argv, int first = 3)
      : command_(std::move(command)) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  const std::string& command() const { return command_; }

  /// --key=value lookup (registers `key`).
  std::string str(const std::string& key, const std::string& fallback) {
    keys_.push_back(key);
    const std::string prefix = "--" + key + "=";
    std::string value = fallback;
    for (const std::string& arg : args_)
      if (arg.rfind(prefix, 0) == 0) value = arg.substr(prefix.size());
    return value;
  }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback) {
    const std::string value = str(key, "");
    if (value.empty()) return fallback;
    try {
      std::size_t used = 0;
      const std::uint64_t parsed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
      return parsed;
    } catch (const std::exception&) {
      throw std::runtime_error(command_ + ": option '--" + key +
                               "' expects an unsigned integer, got '" +
                               value + "'");
    }
  }

  std::size_t size(const std::string& key, std::size_t fallback) {
    return static_cast<std::size_t>(
        u64(key, static_cast<std::uint64_t>(fallback)));
  }

  double f64(const std::string& key, double fallback) {
    const std::string value = str(key, "");
    if (value.empty()) return fallback;
    try {
      std::size_t used = 0;
      const double parsed = std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
      return parsed;
    } catch (const std::exception&) {
      throw std::runtime_error(command_ + ": option '--" + key +
                               "' expects a number, got '" + value + "'");
    }
  }

  /// Comma-separated --key=a,b,c of unsigned integers (registers `key`).
  std::vector<std::uint64_t> u64_list(const std::string& key) {
    const std::string value = str(key, "");
    std::vector<std::uint64_t> values;
    std::size_t begin = 0;
    while (begin <= value.size() && !value.empty()) {
      const std::size_t end = std::min(value.find(',', begin), value.size());
      const std::string item = value.substr(begin, end - begin);
      try {
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(item, &used);
        if (item.empty() || used != item.size())
          throw std::invalid_argument(item);
        values.push_back(parsed);
      } catch (const std::exception&) {
        throw std::runtime_error(command_ + ": option '--" + key +
                                 "' expects comma-separated unsigned "
                                 "integers, got '" +
                                 value + "'");
      }
      begin = end + 1;
      if (end == value.size()) break;
    }
    return values;
  }

  /// Comma-separated --key=a,b,c of strings (registers `key`; empty items
  /// are dropped, so a trailing comma is harmless).
  std::vector<std::string> str_list(const std::string& key) {
    const std::string value = str(key, "");
    std::vector<std::string> values;
    for (std::size_t begin = 0; begin < value.size();) {
      const std::size_t end = std::min(value.find(',', begin), value.size());
      if (end > begin) values.push_back(value.substr(begin, end - begin));
      begin = end + 1;
    }
    return values;
  }

  /// Boolean --name (registers `name`).
  bool flag(const std::string& name) {
    flags_.push_back(name);
    const std::string wanted = "--" + name;
    return std::find(args_.begin(), args_.end(), wanted) != args_.end();
  }

  /// Strict validation: every argument must be a registered `--key=value`
  /// option or boolean `--flag`.  A typo fails loudly here instead of being
  /// silently ignored — identically for every subcommand.
  void finish() const {
    for (const std::string& arg : args_) {
      const std::string_view view = arg;
      if (view.rfind("--", 0) != 0)
        throw std::runtime_error(command_ + ": unexpected argument '" + arg +
                                 "'");
      const std::string_view body = view.substr(2);
      const std::size_t eq = body.find('=');
      if (eq != std::string_view::npos) {
        const std::string key(body.substr(0, eq));
        if (std::find(keys_.begin(), keys_.end(), key) != keys_.end())
          continue;
        throw std::runtime_error(command_ + ": unknown option '--" + key +
                                 "' (run `ftmc` for usage)");
      }
      const std::string name(body);
      if (std::find(flags_.begin(), flags_.end(), name) != flags_.end())
        continue;
      if (std::find(keys_.begin(), keys_.end(), name) != keys_.end())
        throw std::runtime_error(command_ + ": option '" + arg +
                                 "' expects a value (" + arg + "=...)");
      throw std::runtime_error(command_ + ": unknown flag '" + arg +
                               "' (run `ftmc` for usage)");
    }
  }

 private:
  std::string command_;
  std::vector<std::string> args_;
  std::vector<std::string> keys_;
  std::vector<std::string> flags_;
};

/// The option surface shared by analyze/simulate/optimize.  parse() must
/// run before the command does real work — tracing has to start first; call
/// finish_telemetry() after the command's results are printed.
struct CommonOptions {
  std::size_t threads = 0;
  std::string metrics_json;
  std::string chrome_trace;
  bool quiet = false;

  // Checkpointing surface (read only when `with_checkpointing`; commands
  // without it reject the flags like any other unknown option).
  std::string checkpoint;
  std::size_t checkpoint_every = 1;
  std::string resume;

  static CommonOptions parse(OptionParser& parser,
                             bool with_checkpointing = false) {
    CommonOptions common;
    common.threads = parser.size("threads", 0);
    common.metrics_json = parser.str("metrics-json", "");
    common.chrome_trace = parser.str("chrome-trace", "");
    common.quiet = parser.flag("quiet");
    if (with_checkpointing) {
      common.checkpoint = parser.str("checkpoint", "");
      common.checkpoint_every = parser.size("checkpoint-every", 1);
      common.resume = parser.str("resume", "");
      if (!common.resume.empty() && !common.checkpoint.empty() &&
          common.resume != common.checkpoint)
        throw std::runtime_error(
            parser.command() +
            ": --resume and --checkpoint name different files; a resumed "
            "run continues checkpointing to the file it resumed from");
    }
    if (!common.chrome_trace.empty()) ftmc::obs::enable_tracing();
    return common;
  }

  /// Checkpoint base path honoring the --resume default.
  std::string checkpoint_path() const {
    return checkpoint.empty() ? resume : checkpoint;
  }

  void finish_telemetry() const {
    ftmc::obs::export_metrics_file(metrics_json);
    ftmc::obs::export_chrome_trace_file(chrome_trace);
  }
};

/// The GA-campaign option surface shared by `optimize` and `campaign` —
/// one strict parser, so every flag spells, defaults, and validates
/// identically in both subcommands.  `campaign` additionally reads the
/// coordinator/worker flags (pass distributed = true); `optimize` rejects
/// them like any other unknown option.
///
/// This struct holds raw parsed values only; mapping onto
/// dse::CampaignOptions (and dist::WorkerFleetOptions) stays in the CLI so
/// this header needs no heavyweight includes.
struct CampaignOptions {
  // GA shape.
  std::size_t generations = 60;
  std::size_t population = 40;
  std::uint64_t seed = 42;
  std::vector<std::uint64_t> seeds;  ///< one island/shard per seed
  bool sequential_scenarios = false;
  bool no_dropping = false;
  bool power_only = false;

  // Budget / robustness.
  double max_seconds = 0.0;
  std::size_t max_evaluations = 0;
  std::size_t max_retries = 2;

  // Artifacts.
  std::string telemetry_jsonl;
  std::string out;
  std::string front_json;
  std::string cache_dir;

  // Coordinator/worker surface (campaign only).
  std::size_t workers = 0;                ///< local `ftmc serve` spawns
  std::vector<std::string> worker_hosts;  ///< external host:port workers
  std::size_t worker_threads = 0;         ///< --threads for spawned workers
  std::size_t migration_every = 0;  ///< generations per island epoch
  std::size_t migration_size = 4;   ///< migrants per island per barrier

  static CampaignOptions parse(OptionParser& parser,
                               bool distributed = false) {
    CampaignOptions campaign;
    campaign.generations = parser.size("generations", 60);
    campaign.population = parser.size("population", 40);
    campaign.seed = parser.u64("seed", 42);
    campaign.seeds = parser.u64_list("seeds");
    campaign.sequential_scenarios = parser.flag("sequential-scenarios");
    campaign.no_dropping = parser.flag("no-dropping");
    campaign.power_only = parser.flag("power-only");
    campaign.max_seconds = parser.f64("max-seconds", 0.0);
    campaign.max_evaluations = parser.size("max-evaluations", 0);
    campaign.max_retries = parser.size("retries", 2);
    campaign.telemetry_jsonl = parser.str("telemetry-jsonl", "");
    campaign.out = parser.str("out", "");
    campaign.front_json = parser.str("front-json", "");
    campaign.cache_dir = parser.str("cache-dir", "");
    if (distributed) {
      campaign.workers = parser.size("workers", 0);
      campaign.worker_hosts = parser.str_list("worker-hosts");
      campaign.worker_threads = parser.size("worker-threads", 0);
      // Campaigns run the island model by default: a migration barrier
      // every 10 generations (0 restores independent shards).
      campaign.migration_every = parser.size("migration-every", 10);
      campaign.migration_size = parser.size("migration-size", 4);
    }
    return campaign;
  }
};

}  // namespace cli
