// Tests for the distributed campaign stack (src/ftmc/dist/): worker fleet
// lifecycle, the RemoteExecutor ↔ InProcessExecutor bitwise differential,
// crash resilience (SIGKILL a worker mid-campaign), the shared persistent
// evaluation store, the `batch` request bytes and reply range checks, and
// the PROTOCOL.md examples — every documented request/response pair is
// replayed verbatim against a live fixture server, so the protocol
// document cannot drift from the implementation.
//
// These tests fork/exec real `ftmc serve` worker processes from the built
// CLI binary (FTMC_BINARY, a compile definition set in CMakeLists.txt).
#include "ftmc/dist/remote_executor.hpp"
#include "ftmc/dist/worker.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/dse/campaign.hpp"
#include "ftmc/dse/chromosome.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/serve/protocol.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/util/rng.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using serve::JsonValue;
using serve::parse_json;

/// The standard fixture system, written where spawned workers can load it.
std::string write_demo_system(const std::string& name) {
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const core::Candidate candidate = fixtures::plain_candidate(arch, apps);
  const std::string path =
      ::testing::TempDir() + "ftmc_dist_" + name + ".ftmc";
  std::ofstream out(path);
  io::write_system(out, arch, apps, &candidate);
  return path;
}

struct CampaignRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
};

/// A small island campaign: two seeds, epochs of two generations.
dse::CampaignOptions island_options() {
  dse::CampaignOptions options;
  options.ga.population = 10;
  options.ga.offspring = 10;
  options.ga.generations = 6;
  options.ga.threads = 2;
  options.seeds = {11, 22};
  options.migration_every = 2;
  options.migration_size = 2;
  options.retry_backoff_seconds = 0.0;
  return options;
}

/// Remote evaluation for every island: one RemoteExecutor per attempt,
/// carrying the island's own campaign seed (the worker's content-seeded
/// decode must match the GA's).
void use_fleet(dse::CampaignOptions& options, dist::WorkerFleet& fleet,
               const std::string& system_path) {
  const std::vector<std::uint64_t> seeds = options.seeds;
  options.executor_factory = [&fleet, system_path,
                              seeds](std::size_t island) {
    return std::unique_ptr<dse::Executor>(
        std::make_unique<dist::RemoteExecutor>(
            fleet, fleet.assign(island), system_path,
            seeds[island % seeds.size()]));
  };
  options.parallel_islands = true;
}

void expect_same_front(const std::vector<dse::Individual>& a,
                       const std::vector<dse::Individual>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives);
    EXPECT_EQ(a[i].chromosome, b[i].chromosome);
    EXPECT_EQ(a[i].evaluation.power, b[i].evaluation.power);
    EXPECT_EQ(a[i].evaluation.service, b[i].evaluation.service);
  }
}

// --- Worker fleet -----------------------------------------------------------

TEST(Fleet, RejectsNonsenseConfiguration) {
  // No workers at all.
  EXPECT_THROW(dist::WorkerFleet((dist::WorkerFleetOptions())),
               std::invalid_argument);
  // Spawning needs a system to serve.
  dist::WorkerFleetOptions spawn_only;
  spawn_only.spawn = 1;
  EXPECT_THROW(dist::WorkerFleet(std::move(spawn_only)),
               std::invalid_argument);
  // host:port typos fail the campaign instead of being retried.
  for (const char* endpoint : {"nonsense", ":1234", "host:", "host:0",
                               "host:99999"}) {
    dist::WorkerFleetOptions bad;
    bad.hosts = {endpoint};
    EXPECT_THROW(dist::WorkerFleet(std::move(bad)), std::invalid_argument)
        << endpoint;
  }
}

TEST(Fleet, SpawnsWorkersAndRoundTripsVersionedCalls) {
  const std::string path = write_demo_system("spawn");
  dist::WorkerFleetOptions options;
  options.ftmc_binary = FTMC_BINARY;
  options.system_path = path;
  options.spawn = 1;
  dist::WorkerFleet fleet(std::move(options));
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_GT(fleet.pid(0), 0);

  const std::string response = fleet.call(
      0, R"({"v": "ftmc.rpc.v1", "id": "t", "method": "ping"})");
  const JsonValue root = parse_json(response);
  EXPECT_TRUE(root.bool_or("ok", false)) << response;
  EXPECT_EQ(root.str_or("v", ""), serve::kRpcVersion);

  EXPECT_GE(obs::snapshot().value_of("dse.worker.spawns"), 1u);
  EXPECT_GE(obs::snapshot().value_of("dse.worker.calls"), 1u);
}

// --- Remote vs in-process differential --------------------------------------

TEST(Distributed, RemoteCampaignFrontIsBitwiseIdenticalToInProcess) {
  CampaignRig rig;
  const std::string path = write_demo_system("differential");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  dse::CampaignOptions local = island_options();
  const dse::CampaignResult in_process = campaign.run(local);
  ASSERT_FALSE(in_process.front.empty());
  EXPECT_GE(in_process.migration_epochs, 1u);

  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 2;
  dist::WorkerFleet fleet(std::move(fleet_options));
  dse::CampaignOptions remote = island_options();
  use_fleet(remote, fleet, path);
  const dse::CampaignResult distributed = campaign.run(remote);

  expect_same_front(in_process.front, distributed.front);
  EXPECT_EQ(in_process.evaluations, distributed.evaluations);
  EXPECT_EQ(in_process.migration_epochs, distributed.migration_epochs);
  EXPECT_EQ(in_process.migrants, distributed.migrants);
}

// A remote executor answers from the workers' caches, which the GA cannot
// see: the shard results count those answers instead of a run-local cache
// the GA never consulted.
TEST(Distributed, RemoteCampaignReportsTheWorkersCacheAnswers) {
  CampaignRig rig;
  const std::string path = write_demo_system("answers");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);
  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 2;
  dist::WorkerFleet fleet(std::move(fleet_options));
  dse::CampaignOptions options = island_options();
  options.migration_every = 0;  // plain shards: one GA run per seed
  use_fleet(options, fleet, path);

  const std::uint64_t before = obs::snapshot().value_of("dse.evaluations");
  const dse::CampaignResult result = campaign.run(options);
  const std::uint64_t evaluations =
      obs::snapshot().value_of("dse.evaluations") - before;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const dse::ShardResult& shard : result.shards) {
    hits += shard.result.cache.hits;
    misses += shard.result.cache.misses;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(hits + misses, evaluations);
  EXPECT_EQ(evaluations, result.evaluations);
}

TEST(Distributed, SurvivesWorkerSigkillMidCampaign) {
  CampaignRig rig;
  const std::string path = write_demo_system("sigkill");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  dse::CampaignOptions reference = island_options();
  const dse::CampaignResult undisturbed = campaign.run(reference);
  ASSERT_FALSE(undisturbed.front.empty());

  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 2;
  dist::WorkerFleet fleet(std::move(fleet_options));

  dse::CampaignOptions killed_run = island_options();
  use_fleet(killed_run, fleet, path);
  std::atomic<bool> killed{false};
  killed_run.on_generation = [&](std::size_t island,
                                 const dse::GenerationStats& stats) {
    // SIGKILL island 0's worker mid-campaign, exactly once.  The kill lands
    // between generations, so the fleet waitpid-detects the corpse on the
    // island's next call and respawns it before the call goes out — the
    // campaign never sees a failure, it just keeps going.
    if (island == 0 && stats.generation == 3 &&
        !killed.exchange(true) && fleet.pid(0) > 0)
      ::kill(fleet.pid(0), SIGKILL);
  };
  const std::uint64_t lost_before =
      obs::snapshot().value_of("dse.worker.lost");
  const std::uint64_t respawns_before =
      obs::snapshot().value_of("dse.worker.respawns");
  const dse::CampaignResult survived = campaign.run(killed_run);

  EXPECT_TRUE(killed.load());
  expect_same_front(undisturbed.front, survived.front);
  EXPECT_EQ(undisturbed.evaluations, survived.evaluations);
  EXPECT_GE(obs::snapshot().value_of("dse.worker.lost"), lost_before + 1);
  EXPECT_GE(obs::snapshot().value_of("dse.worker.respawns"),
            respawns_before + 1);
}

/// Delegates to a real executor but fails one call with ExecutorError —
/// the transport failure a worker dying *mid-call* produces.
class FlakyExecutor final : public dse::Executor {
 public:
  FlakyExecutor(std::unique_ptr<dse::Executor> inner,
                std::atomic<bool>& tripped)
      : inner_(std::move(inner)), tripped_(&tripped) {}

  const char* name() const noexcept override { return "flaky"; }
  void evaluate(const std::vector<dse::EvalRequest>& requests,
                std::vector<dse::EvalOutcome>& outcomes) override {
    // Fail the third batch: past the first epoch, so the island retries
    // from a real snapshot rather than restarting from scratch.
    if (++calls_ == 3 && !tripped_->exchange(true))
      throw dse::ExecutorError("injected transport failure");
    inner_->evaluate(requests, outcomes);
  }

 private:
  std::unique_ptr<dse::Executor> inner_;
  std::atomic<bool>* tripped_;
  int calls_ = 0;
};

TEST(Distributed, RetriesIslandAfterMidCallTransportFailure) {
  CampaignRig rig;
  const std::string path = write_demo_system("retry");
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  dse::CampaignOptions reference = island_options();
  const dse::CampaignResult undisturbed = campaign.run(reference);
  ASSERT_FALSE(undisturbed.front.empty());

  dist::WorkerFleetOptions fleet_options;
  fleet_options.ftmc_binary = FTMC_BINARY;
  fleet_options.system_path = path;
  fleet_options.spawn = 1;
  dist::WorkerFleet fleet(std::move(fleet_options));

  dse::CampaignOptions flaky_run = island_options();
  const std::vector<std::uint64_t> seeds = flaky_run.seeds;
  std::atomic<bool> tripped{false};
  flaky_run.executor_factory = [&](std::size_t island) {
    auto remote = std::make_unique<dist::RemoteExecutor>(
        fleet, fleet.assign(island), path, seeds[island % seeds.size()]);
    if (island == 0)
      return std::unique_ptr<dse::Executor>(
          std::make_unique<FlakyExecutor>(std::move(remote), tripped));
    return std::unique_ptr<dse::Executor>(std::move(remote));
  };
  flaky_run.parallel_islands = true;
  const std::uint64_t retries_before =
      obs::snapshot().value_of("dse.campaign.retries");
  const dse::CampaignResult survived = campaign.run(flaky_run);

  // The injected failure tripped, the island resumed from its snapshot on a
  // fresh executor, and the search trajectory was unaffected.
  EXPECT_TRUE(tripped.load());
  expect_same_front(undisturbed.front, survived.front);
  EXPECT_GE(obs::snapshot().value_of("dse.campaign.retries"),
            retries_before + 1);
  std::size_t retries = 0;
  for (const dse::ShardResult& shard : survived.shards)
    retries += shard.retries;
  EXPECT_GE(retries, 1u);
}

TEST(Distributed, WarmSharedStoreServesEverySecondRunEvaluation) {
  CampaignRig rig;
  const std::string path = write_demo_system("store");
  const std::string cache_dir = ::testing::TempDir() + "ftmc_dist_store";
  std::filesystem::remove_all(cache_dir);  // a previous run's store is warm
  const dse::Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto run_with_fresh_fleet = [&]() {
    dist::WorkerFleetOptions fleet_options;
    fleet_options.ftmc_binary = FTMC_BINARY;
    fleet_options.system_path = path;
    fleet_options.spawn = 2;
    fleet_options.cache_dir = cache_dir;
    dist::WorkerFleet fleet(std::move(fleet_options));
    dse::CampaignOptions options = island_options();
    use_fleet(options, fleet, path);
    const dse::CampaignResult result = campaign.run(options);

    // Per-worker persistent-store traffic for this run: the workers are
    // freshly spawned and hold one system each, so their process-wide
    // store.* counters cover exactly this campaign's store.
    std::uint64_t appends = 0;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const JsonValue metrics = parse_json(fleet.call(
          i, R"({"v": "ftmc.rpc.v1", "id": "m", "method": "metrics"})"));
      EXPECT_TRUE(metrics.bool_or("ok", false));
      const JsonValue* result = metrics.get("result");
      const JsonValue* snapshot =
          result != nullptr ? result->get("metrics") : nullptr;
      const JsonValue* counters =
          snapshot != nullptr ? snapshot->get("counters") : nullptr;
      if (counters == nullptr || !counters->is_object()) {
        ADD_FAILURE() << "malformed metrics response from worker " << i;
        continue;
      }
      appends += counters->u64_or("store.appends", 0);
      hits += counters->u64_or("store.hits", 0);
    }
    return std::tuple(result.front.size(), appends, hits);
  };

  const auto [cold_front, cold_appends, cold_hits] = run_with_fresh_fleet();
  EXPECT_GT(cold_front, 0u);
  EXPECT_GT(cold_appends, 0u);

  // Same campaign against fresh workers sharing the now-warm store: every
  // evaluation is served from it, nothing fresh is appended.
  const auto [warm_front, warm_appends, warm_hits] = run_with_fresh_fleet();
  EXPECT_EQ(warm_front, cold_front);
  EXPECT_EQ(warm_appends, 0u);
  EXPECT_GT(warm_hits, 0u);
}

// --- Wire encoding ----------------------------------------------------------

/// The reference encoding: the request built as an obs::Json tree around
/// chromosome_json, then dumped.
std::string tree_batch_request(const std::vector<dse::EvalRequest>& requests,
                               const std::string& system,
                               std::uint64_t seed) {
  obs::Json batch = obs::Json::array();
  for (std::size_t index = 0; index < requests.size(); ++index)
    batch.push(obs::Json::object()
                   .set("id", index)
                   .set("method", "evaluate")
                   .set("system", system)
                   .set("params",
                        obs::Json::object()
                            .set("chromosome",
                                 dist::chromosome_json(*requests[index].genotype))
                            .set("seed", seed)));
  return obs::Json::object()
      .set("v", serve::kRpcVersion)
      .set("id", "executor")
      .set("method", "batch")
      .set("params", obs::Json::object().set("requests", std::move(batch)))
      .dump();
}

TEST(RemoteExecutor, BatchRequestBytesMatchTheTreeEncoding) {
  const io::SystemSpec demo = io::parse_system_file(
      std::string(FTMC_SOURCE_DIR) + "/examples/systems/demo.ftmc");
  const benchmarks::Benchmark dt_med = benchmarks::dt_med_benchmark();
  const benchmarks::Benchmark dt_large = benchmarks::dt_large_benchmark();
  const std::vector<dse::ChromosomeShape> shapes = {
      dse::ChromosomeShape::of(demo.arch, demo.apps),
      dse::ChromosomeShape::of(dt_med.arch, dt_med.apps),
      dse::ChromosomeShape::of(dt_large.arch, dt_large.apps)};
  // System paths that need escaping: a quote, a backslash, control bytes
  // and multi-byte UTF-8 (which passes through unescaped).
  const std::vector<std::string> systems = {
      "examples/systems/demo.ftmc", "dir \"quoted\"/back\\slash.ftmc",
      std::string("ctl\x01\x1f\n\t.ftmc"), "caf\xC3\xA9/\xF0\x9F\x98\x80.ftmc"};
  util::Rng rng(99);
  for (const dse::ChromosomeShape& shape : shapes) {
    for (const std::size_t count : {0, 1, 40}) {
      std::vector<dse::Chromosome> genotypes;
      for (std::size_t i = 0; i < count; ++i) {
        genotypes.push_back(dse::random_chromosome(shape, rng));
        // Widest gene values too, not only the ones repair leaves.
        if (rng.chance(0.3) && !genotypes.back().tasks.empty()) {
          dse::TaskGenes& task = genotypes.back().tasks.front();
          task.reexec = 255;
          task.base_pe = 65535;
          task.replica_pe[2] = 65535;
          task.voter_pe = 65535;
        }
      }
      std::vector<dse::EvalRequest> requests(count);
      for (std::size_t i = 0; i < count; ++i)
        requests[i].genotype = &genotypes[i];
      for (const std::string& system : systems) {
        const std::uint64_t seed =
            rng.chance(0.2) ? ~std::uint64_t{0} : rng();
        EXPECT_EQ(dist::encode_batch_request(requests, system, seed),
                  tree_batch_request(requests, system, seed))
            << shape.tasks << " tasks, " << count << " requests, system "
            << system;
      }
    }
  }
}

TEST(RemoteExecutor, RejectsGraphWcrtBoundsOutsideInt64) {
  const core::Evaluation evaluation = dist::evaluation_from_json(parse_json(
      R"({"graph_wcrt": [5, -9223372036854775808, 9223372036854774784]})"));
  EXPECT_EQ(evaluation.graph_wcrt,
            (std::vector<model::Time>{5, std::numeric_limits<model::Time>::min(),
                                      9223372036854774784}));
  for (const char* bound : {"1e300", "-1e300", "9223372036854775808"})
    EXPECT_THROW((void)dist::evaluation_from_json(parse_json(
                     std::string(R"({"graph_wcrt": [)") + bound + "]}")),
                 dse::ExecutorError)
        << bound;
}

// --- PROTOCOL.md ------------------------------------------------------------

TEST(Protocol, DocumentedExamplesStayValid) {
  const std::string path = write_demo_system("protocol");
  serve::ServeOptions options;
  options.system_paths = {path};
  options.threads = 2;
  serve::Server server(std::move(options));

  const std::vector<std::string> blocks = fixtures::protocol_json_blocks(
      std::string(FTMC_SOURCE_DIR) + "/docs/PROTOCOL.md");
  ASSERT_GE(blocks.size(), 2u);
  std::size_t pairs = 0;
  std::string pending_request;
  for (const std::string& block : blocks) {
    const JsonValue value = parse_json(block);  // every example is valid JSON
    ASSERT_TRUE(value.is_object()) << block;
    if (value.get("ok") == nullptr) {
      // A request: the next block is its documented response.
      EXPECT_TRUE(pending_request.empty())
          << "two request examples in a row before: " << block;
      ASSERT_NE(value.get("method"), nullptr) << block;
      pending_request = block;
      continue;
    }
    ASSERT_FALSE(pending_request.empty())
        << "response example without a request before it: " << block;
    const std::string actual_text = server.handle(pending_request);
    pending_request.clear();
    ++pairs;
    const JsonValue actual = parse_json(actual_text);

    EXPECT_EQ(actual.bool_or("ok", false), value.bool_or("ok", false))
        << block << "\nactual: " << actual_text;
    EXPECT_EQ(actual.str_or("v", ""), serve::kRpcVersion) << actual_text;
    if (!value.bool_or("ok", false)) {
      const JsonValue* documented = value.get("error");
      const JsonValue* error = actual.get("error");
      ASSERT_NE(documented, nullptr) << block;
      ASSERT_NE(error, nullptr) << actual_text;
      EXPECT_EQ(error->str_or("code", ""), documented->str_or("code", ""))
          << block << "\nactual: " << actual_text;
      continue;
    }
    // Every documented result key must exist in the live response (values
    // may differ — timings, counts, and paths are illustrative).
    const JsonValue* documented = value.get("result");
    const JsonValue* result = actual.get("result");
    ASSERT_NE(documented, nullptr) << block;
    ASSERT_NE(result, nullptr) << actual_text;
    for (const auto& [key, unused] : documented->object)
      EXPECT_NE(result->get(key), nullptr)
          << "documented result key '" << key
          << "' missing from live response: " << actual_text;
  }
  // The document exercises the whole session: versioning, errors, every
  // method, and the drain.
  EXPECT_GE(pairs, 12u);
}

}  // namespace
