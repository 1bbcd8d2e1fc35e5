// Tests for the `ftmc.ckpt.v1` checkpoint format, the GA's crash-safe
// resume guarantee, and the multi-seed Campaign driver (checkpoint.hpp /
// campaign.hpp).
//
// The headline guarantee under test: kill the GA at ANY generation
// boundary, resume from the snapshot, and the final archive and the
// trajectory fields of the per-generation telemetry are bitwise identical
// to the uninterrupted run.  Timing/cache-hit telemetry is explicitly
// excluded (resume restarts with a cold cache).
#include "ftmc/dse/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ftmc/dse/campaign.hpp"
#include "ftmc/dse/executor.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"
#include "oracle/holistic_oracle.hpp"

namespace {

using namespace ftmc;
using dse::Campaign;
using dse::CampaignOptions;
using dse::Checkpoint;
using dse::CheckpointError;
using dse::GaOptions;
using dse::GaResult;
using dse::GenerationStats;
using dse::GeneticOptimizer;
using dse::TrajectoryOptions;

GaOptions tiny_options() {
  GaOptions options;
  options.population = 10;
  options.offspring = 10;
  options.generations = 6;
  options.seed = 123;
  options.threads = 2;
  return options;
}

struct GaRig {
  model::Architecture arch = fixtures::test_arch(2);
  model::ApplicationSet apps = fixtures::small_mixed_apps();
  sched::HolisticAnalysis backend;
  GeneticOptimizer optimizer{arch, apps, backend};
};

/// Unique scratch path under gtest's per-run temp dir.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ftmc_ckpt_" + name;
}

void remove_rotation(const std::string& path, std::size_t keep = 8) {
  std::remove(path.c_str());
  for (std::size_t i = 1; i < keep; ++i)
    std::remove((path + "." + std::to_string(i)).c_str());
}

void expect_same_double(double a, double b) {
  if (std::isnan(a)) {
    EXPECT_TRUE(std::isnan(b));
  } else {
    EXPECT_EQ(a, b);
  }
}

/// The resume guarantee, spelled out: identical archive (genotype,
/// phenotype, objectives), identical Pareto front, identical run totals,
/// and identical trajectory fields of every history entry.  Cache and
/// timing telemetry are excluded by design.
void expect_same_trajectory(const GaResult& a, const GaResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.last_generation, b.last_generation);
  expect_same_double(a.best_feasible_power, b.best_feasible_power);
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i) {
    EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
    EXPECT_EQ(a.archive[i].chromosome, b.archive[i].chromosome);
    EXPECT_EQ(a.archive[i].candidate, b.archive[i].candidate);
  }
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i)
    EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].generation, b.history[i].generation);
    EXPECT_EQ(a.history[i].feasible_in_archive,
              b.history[i].feasible_in_archive);
    EXPECT_EQ(a.history[i].evaluations, b.history[i].evaluations);
    expect_same_double(a.history[i].best_feasible_power,
                       b.history[i].best_feasible_power);
  }
}

// --- Snapshot round-trip ----------------------------------------------------

TEST(CheckpointFormat, EncodeDecodeRoundTripOver20Seeds) {
  GaRig rig;
  const std::string path = temp_path("roundtrip");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto options = tiny_options();
    options.population = 6;
    options.offspring = 6;
    options.generations = 1;
    options.seed = seed;
    options.checkpoint_path = path;
    (void)rig.optimizer.run(options);

    const Checkpoint loaded = dse::load_checkpoint(path);
    const std::vector<std::uint8_t> bytes = dse::encode_checkpoint(loaded);
    // Canonical encoding: decode(encode(decode(x))) produces the same
    // bytes, so the format has no hidden nondeterminism.
    const Checkpoint again = dse::decode_checkpoint(bytes);
    EXPECT_EQ(dse::encode_checkpoint(again), bytes) << "seed " << seed;

    EXPECT_EQ(loaded.options, TrajectoryOptions::of(options));
    EXPECT_EQ(loaded.generation, options.generations);
    EXPECT_NE(loaded.finished, 0);
    EXPECT_GT(loaded.evaluations, 0u);
    EXPECT_EQ(loaded.master, again.master);
    EXPECT_EQ(loaded.archive.size(), again.archive.size());
    EXPECT_EQ(loaded.history.size(), again.history.size());
  }
  remove_rotation(path);
}

// --- Resume == uninterrupted, killed at every boundary ----------------------

TEST(CheckpointResume, KillAtEveryBoundaryResumesBitwiseIdentical) {
  GaRig rig;
  auto options = tiny_options();
  options.generations = 10;
  const GaResult uninterrupted = rig.optimizer.run(options);

  const std::string path = temp_path("kill");
  for (std::size_t boundary = 0; boundary < options.generations;
       ++boundary) {
    remove_rotation(path);
    auto killed = options;
    killed.checkpoint_path = path;
    bool past_boundary = false;
    killed.on_generation = [&](const GenerationStats& stats) {
      past_boundary = stats.generation >= boundary;
    };
    killed.stop_requested = [&]() { return past_boundary; };
    const GaResult partial = rig.optimizer.run(killed);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.last_generation, boundary);

    const Checkpoint snapshot = dse::load_checkpoint(path);
    EXPECT_EQ(snapshot.generation, boundary);
    EXPECT_EQ(snapshot.finished, 0);

    auto resumed_options = options;
    resumed_options.resume = &snapshot;
    const GaResult resumed = rig.optimizer.run(resumed_options);
    EXPECT_FALSE(resumed.interrupted);
    expect_same_trajectory(uninterrupted, resumed);
  }
  remove_rotation(path);
}

// The WCRT backend is constructed outside GaOptions: swapping it on resume
// must pass the TrajectoryOptions check AND land on the exact same
// trajectory whenever the two backends compute bitwise-identical bounds —
// here the test-only seed kernel (tests/oracle/) and the production one.
TEST(CheckpointResume, ResumeWithKernelModeFlippedIsIdentical) {
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const oracle::HolisticOracle reference_backend;
  const sched::HolisticAnalysis default_backend;
  GeneticOptimizer reference(arch, apps, reference_backend);
  GeneticOptimizer fast(arch, apps, default_backend);

  auto options = tiny_options();
  const GaResult uninterrupted = reference.run(options);

  const std::string path = temp_path("kernel_flip");
  remove_rotation(path);
  auto killed = options;
  killed.checkpoint_path = path;
  bool past_boundary = false;
  killed.on_generation = [&](const GenerationStats& stats) {
    past_boundary = stats.generation >= 3;
  };
  killed.stop_requested = [&]() { return past_boundary; };
  const GaResult partial = reference.run(killed);
  EXPECT_TRUE(partial.interrupted);

  const Checkpoint snapshot = dse::load_checkpoint(path);
  auto resumed_options = options;
  resumed_options.resume = &snapshot;
  // Oracle run killed mid-way, resumed on the production kernel: no
  // CheckpointError from the options check, identical trajectory.
  const GaResult resumed = fast.run(resumed_options);
  EXPECT_FALSE(resumed.interrupted);
  expect_same_trajectory(uninterrupted, resumed);
  remove_rotation(path);
}

TEST(CheckpointResume, ReplaysRestoredTelemetryThenContinues) {
  GaRig rig;
  auto options = tiny_options();
  const std::string path = temp_path("replay");
  remove_rotation(path);

  auto killed = options;
  killed.checkpoint_path = path;
  bool past_boundary = false;
  killed.on_generation = [&](const GenerationStats& stats) {
    past_boundary = stats.generation >= 2;
  };
  killed.stop_requested = [&]() { return past_boundary; };
  (void)rig.optimizer.run(killed);

  const Checkpoint snapshot = dse::load_checkpoint(path);
  auto resumed_options = options;
  resumed_options.resume = &snapshot;
  std::vector<std::size_t> seen;
  resumed_options.on_generation = [&](const GenerationStats& stats) {
    seen.push_back(stats.generation);
  };
  (void)rig.optimizer.run(resumed_options);
  // Generations 0..2 are replayed from the snapshot's history, 3..6 run
  // live: one contiguous telemetry stream covering the whole run.
  ASSERT_EQ(seen.size(), options.generations + 1);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  remove_rotation(path);
}

TEST(CheckpointResume, FinishedSnapshotReconstructsWithoutEvaluation) {
  GaRig rig;
  auto options = tiny_options();
  options.checkpoint_path = temp_path("finished");
  remove_rotation(options.checkpoint_path);
  const GaResult full = rig.optimizer.run(options);

  const Checkpoint snapshot = dse::load_checkpoint(options.checkpoint_path);
  EXPECT_NE(snapshot.finished, 0);
  auto resumed_options = options;
  resumed_options.checkpoint_path.clear();
  resumed_options.resume = &snapshot;
  const GaResult resumed = rig.optimizer.run(resumed_options);
  // No evaluation happens: the totals are the restored ones, bit-for-bit.
  expect_same_trajectory(full, resumed);
  remove_rotation(options.checkpoint_path);
}

// --- Rejection paths --------------------------------------------------------

/// A minimal but well-formed snapshot for byte-level tampering tests.
std::vector<std::uint8_t> valid_bytes() {
  Checkpoint snapshot;
  snapshot.options = TrajectoryOptions::of(tiny_options());
  snapshot.generation = 3;
  snapshot.evaluations = 70;
  snapshot.best_feasible_power = 12.5;
  snapshot.master = util::Rng(7).state();
  GenerationStats stats;
  stats.generation = 3;
  stats.evaluations = 10;
  snapshot.history.push_back(stats);
  return dse::encode_checkpoint(snapshot);
}

void expect_rejects(std::vector<std::uint8_t> bytes,
                    const std::string& needle) {
  try {
    (void)dse::decode_checkpoint(bytes);
    FAIL() << "expected CheckpointError containing '" << needle << "'";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(CheckpointFormat, RejectsBadMagic) {
  auto bytes = valid_bytes();
  bytes[0] = 'X';
  expect_rejects(std::move(bytes), "magic");
}

TEST(CheckpointFormat, RejectsUnknownVersion) {
  auto bytes = valid_bytes();
  bytes[8] = static_cast<std::uint8_t>(
      dse::kCheckpointVersion + 1);  // little-endian version field at offset 8
  expect_rejects(std::move(bytes), "version");

  // Version 2 carried a cache fingerprint and an always-empty population
  // in its payload, version 3 a Box-Muller cache after the RNG words,
  // version 4 seventeen trajectory options where v5 records nine; this
  // build names them rather than misreading them.
  auto v2 = valid_bytes();
  v2[8] = 2;
  expect_rejects(std::move(v2), "unsupported checkpoint version 2");
  auto v3 = valid_bytes();
  v3[8] = 3;
  expect_rejects(std::move(v3), "unsupported checkpoint version 3");
  auto v4 = valid_bytes();
  v4[8] = 4;
  expect_rejects(std::move(v4),
                 "unsupported checkpoint version 4 (this build reads v5)");
}

TEST(CheckpointFormat, RejectsNonZeroReservedField) {
  auto bytes = valid_bytes();
  bytes[12] = 1;  // little-endian reserved field at offset 12
  expect_rejects(std::move(bytes), "reserved field 1");
}

TEST(CheckpointFormat, RejectsTruncation) {
  const auto bytes = valid_bytes();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{31}, bytes.size() / 2,
        bytes.size() - 1}) {
    auto cut = bytes;
    cut.resize(keep);
    EXPECT_THROW((void)dse::decode_checkpoint(cut), CheckpointError)
        << "kept " << keep << " bytes";
  }
}

TEST(CheckpointFormat, RejectsPayloadCorruption) {
  auto bytes = valid_bytes();
  bytes[40] ^= 0xFF;  // inside the payload -> digest mismatch
  expect_rejects(std::move(bytes), "checksum");
}

TEST(CheckpointFormat, IgnoresTrailingBytes) {
  // Forward compatibility: newer writers may append extensions after the
  // digested payload; a v1 reader must not choke on them.
  auto bytes = valid_bytes();
  const Checkpoint base = dse::decode_checkpoint(bytes);
  bytes.insert(bytes.end(), {1, 2, 3, 4});
  const Checkpoint extended = dse::decode_checkpoint(bytes);
  EXPECT_EQ(base.generation, extended.generation);
  EXPECT_EQ(base.master, extended.master);
}

TEST(CheckpointFormat, LoadOfMissingFileIsCheckpointError) {
  EXPECT_THROW((void)dse::load_checkpoint(temp_path("does_not_exist")),
               CheckpointError);
}

TEST(CheckpointResume, OptionsMismatchNamesTheField) {
  GaRig rig;
  auto options = tiny_options();
  options.checkpoint_path = temp_path("mismatch");
  remove_rotation(options.checkpoint_path);
  (void)rig.optimizer.run(options);
  const Checkpoint snapshot = dse::load_checkpoint(options.checkpoint_path);

  auto divergent = options;
  divergent.seed = options.seed + 1;
  divergent.resume = &snapshot;
  try {
    (void)rig.optimizer.run(divergent);
    FAIL() << "expected CheckpointError naming 'seed'";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("'seed'"), std::string::npos)
        << error.what();
  }

  // Trajectory-neutral knobs must NOT block a resume.
  auto retuned = options;
  retuned.threads = 1;
  retuned.parallel_scenarios = false;
  retuned.checkpoint_path.clear();
  retuned.resume = &snapshot;
  EXPECT_NO_THROW((void)rig.optimizer.run(retuned));
  remove_rotation(options.checkpoint_path);
}

TEST(CheckpointFormat, TrajectoryMismatchReportsFirstDifferingField) {
  const TrajectoryOptions a = TrajectoryOptions::of(tiny_options());
  TrajectoryOptions b = a;
  EXPECT_EQ(a.mismatch(b), "");
  b.decoder_allow_dropping = a.decoder_allow_dropping == 0 ? 1 : 0;
  EXPECT_EQ(a.mismatch(b), "decoder.allow_dropping");
  // The first differing field in recording order is the one named.
  b.priority_policy = a.priority_policy + 1;
  EXPECT_EQ(a.mismatch(b), "decoder.allow_dropping");
  b.decoder_allow_dropping = a.decoder_allow_dropping;
  EXPECT_EQ(a.mismatch(b), "evaluator.policy");
}

// --- Options validation -----------------------------------------------------

TEST(GaOptionsValidate, RejectsContradictoryKnobs) {
  GaRig rig;
  util::ThreadPool pool(1);
  auto options = tiny_options();
  options.parallel_scenarios = false;
  options.evaluator.scenario_pool = &pool;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);

  options = tiny_options();
  options.checkpoint_path = temp_path("validate");
  options.checkpoint_every = 0;
  EXPECT_THROW(rig.optimizer.run(options), std::invalid_argument);
}

// --- Rotation ---------------------------------------------------------------

TEST(CheckpointPersistence, KeepLastKRotation) {
  GaRig rig;
  auto options = tiny_options();
  options.generations = 4;
  options.checkpoint_path = temp_path("rotate");
  remove_rotation(options.checkpoint_path);
  (void)rig.optimizer.run(options);

  // Newest at the base path, older generations shifted down; every slot
  // still decodes cleanly.
  std::uint64_t previous = dse::load_checkpoint(options.checkpoint_path)
                               .generation;
  EXPECT_EQ(previous, options.generations);
  for (std::size_t slot = 1; slot < dse::kCheckpointKeep; ++slot) {
    const std::string path =
        options.checkpoint_path + "." + std::to_string(slot);
    ASSERT_TRUE(util::file_exists(path));
    const Checkpoint older = dse::load_checkpoint(path);
    EXPECT_EQ(older.generation, previous - 1);
    previous = older.generation;
  }
  EXPECT_FALSE(util::file_exists(options.checkpoint_path + "." +
                                 std::to_string(dse::kCheckpointKeep)));
  remove_rotation(options.checkpoint_path);
}

// --- RngState ---------------------------------------------------------------

TEST(RngState, RestoreResumesExactSequence) {
  util::Rng rng(99);
  for (int i = 0; i < 17; ++i) (void)rng.index(1000);
  const util::RngState state = rng.state();

  std::vector<std::pair<double, std::size_t>> expected;
  for (int i = 0; i < 32; ++i) {
    const double real = rng.uniform_real(-1.0, 1.0);
    expected.emplace_back(real, rng.index(1000));
  }

  util::Rng other(1);  // different seed, fully overwritten by restore
  other.restore(state);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(other.uniform_real(-1.0, 1.0), expected[i].first)
        << "draw " << i;
    EXPECT_EQ(other.index(1000), expected[i].second) << "draw " << i;
  }
}

TEST(RngState, AllZeroStateIsRejected) {
  util::Rng rng(1);
  EXPECT_THROW(rng.restore(util::RngState{}), std::invalid_argument);
}

// --- Campaign ---------------------------------------------------------------

CampaignOptions campaign_options() {
  CampaignOptions options;
  options.ga = tiny_options();
  options.ga.generations = 4;
  options.seeds = {11, 22, 33};
  options.retry_backoff_seconds = 0.0;
  return options;
}

void expect_same_front(const std::vector<dse::Individual>& a,
                       const std::vector<dse::Individual>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives);
    EXPECT_EQ(a[i].chromosome, b[i].chromosome);
  }
}

TEST(Campaign, SeedShardMergeIsDeterministic) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  const auto options = campaign_options();
  const auto first = campaign.run(options);
  const auto second = campaign.run(options);

  ASSERT_EQ(first.shards.size(), options.seeds.size());
  for (std::size_t i = 0; i < first.shards.size(); ++i)
    EXPECT_EQ(first.shards[i].seed, options.seeds[i]);
  EXPECT_FALSE(first.interrupted);
  EXPECT_FALSE(first.budget_exhausted);
  EXPECT_FALSE(first.front.empty());
  expect_same_front(first.front, second.front);
  EXPECT_EQ(first.evaluations, second.evaluations);

  // The merged front is feasible and mutually non-dominated.
  for (const auto& a : first.front) {
    EXPECT_TRUE(a.evaluation.feasible());
    for (const auto& b : first.front)
      if (&a != &b) {
        EXPECT_FALSE(dse::dominates(a.objectives, b.objectives));
      }
  }
}

TEST(Campaign, RetryResumesFromCheckpointDeterministically) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto clean = campaign_options();
  clean.seeds = {11};
  const auto reference = campaign.run(clean);

  // An evaluator-side failure surfaces as an exception from the shard's
  // run; one injected throw at the generation-2 boundary of the first
  // attempt must be absorbed by a retry that resumes the same trajectory.
  auto faulty = clean;
  faulty.checkpoint_path = temp_path("retry");
  remove_rotation(faulty.checkpoint_path);
  bool thrown = false;
  faulty.on_generation = [&](std::size_t, const GenerationStats& stats) {
    if (!thrown && stats.generation == 2) {
      thrown = true;
      throw std::runtime_error("injected transient evaluator failure");
    }
  };
  const auto recovered = campaign.run(faulty);
  ASSERT_EQ(recovered.shards.size(), 1u);
  EXPECT_EQ(recovered.shards[0].retries, 1u);
  expect_same_front(reference.front, recovered.front);
  EXPECT_EQ(reference.evaluations, recovered.evaluations);
  remove_rotation(faulty.checkpoint_path);

  // Without checkpointing the retry restarts from scratch — still the
  // same deterministic trajectory, still one recovered failure.
  auto no_ckpt = clean;
  thrown = false;
  no_ckpt.on_generation = faulty.on_generation;
  const auto restarted = campaign.run(no_ckpt);
  ASSERT_EQ(restarted.shards.size(), 1u);
  EXPECT_EQ(restarted.shards[0].retries, 1u);
  expect_same_front(reference.front, restarted.front);
}

// A retried island resumes from disk and the GA replays the restored
// generations through its telemetry hook; the campaign still delivers each
// generation of each island to on_generation exactly once, with and
// without migration.
TEST(Campaign, RetryDeliversEachGenerationOnce) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  for (const std::size_t migration_every : {0, 2}) {
    SCOPED_TRACE("migration_every " + std::to_string(migration_every));
    auto options = campaign_options();
    options.seeds = {11, 22};
    options.migration_every = migration_every;
    options.checkpoint_path = temp_path("retry_telemetry");
    for (std::size_t i = 0; i < options.seeds.size(); ++i)
      remove_rotation(dse::shard_checkpoint_path(options.checkpoint_path, i,
                                                 options.seeds.size()));
    bool thrown = false;
    std::vector<std::vector<std::size_t>> delivered(options.seeds.size());
    options.on_generation = [&](std::size_t island,
                                const GenerationStats& stats) {
      delivered[island].push_back(stats.generation);
      if (!thrown && island == 0 && stats.generation == 2) {
        thrown = true;
        throw std::runtime_error("injected transient evaluator failure");
      }
    };
    const auto result = campaign.run(options);
    ASSERT_EQ(result.shards.size(), options.seeds.size());
    EXPECT_EQ(result.shards[0].retries, 1u);
    const std::vector<std::size_t> each_once = {0, 1, 2, 3, 4};
    for (std::size_t island = 0; island < delivered.size(); ++island)
      EXPECT_EQ(delivered[island], each_once) << "island " << island;
    for (std::size_t i = 0; i < options.seeds.size(); ++i)
      remove_rotation(dse::shard_checkpoint_path(options.checkpoint_path, i,
                                                 options.seeds.size()));
  }
}

TEST(Campaign, ExhaustedRetriesPropagateTheFailure) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.seeds = {11};
  options.max_retries = 1;
  options.on_generation = [](std::size_t, const GenerationStats&) {
    throw std::runtime_error("persistent failure");
  };
  EXPECT_THROW((void)campaign.run(options), std::runtime_error);
}

TEST(Campaign, ConfigurationErrorsAreNeverRetried) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.ga.population = 0;  // invalid_argument from validate()
  options.max_retries = 5;
  EXPECT_THROW((void)campaign.run(options), std::invalid_argument);
}

TEST(Campaign, EvaluationBudgetStopsAtBoundary) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.max_evaluations = 1;  // hit right after the first batch
  const auto result = campaign.run(options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.interrupted);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_TRUE(result.shards[0].result.interrupted);
  EXPECT_EQ(result.shards[0].result.last_generation, 0u);
}

TEST(Campaign, ResumeContinuesInterruptedShards) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);

  auto uninterrupted = campaign_options();
  const auto reference = campaign.run(uninterrupted);

  auto first_leg = campaign_options();
  first_leg.checkpoint_path = temp_path("campaign_resume");
  const std::size_t shard_count = first_leg.seeds.size();
  for (std::size_t i = 0; i < shard_count; ++i)
    remove_rotation(
        dse::shard_checkpoint_path(first_leg.checkpoint_path, i,
                                   shard_count));
  // Interrupt partway through: generation boundaries across all shards.
  std::size_t boundaries = 0;
  first_leg.on_generation = [&](std::size_t, const GenerationStats&) {
    ++boundaries;
  };
  first_leg.stop_requested = [&]() { return boundaries > 6; };
  const auto partial = campaign.run(first_leg);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.shards.size(), shard_count);

  auto second_leg = first_leg;
  second_leg.on_generation = nullptr;
  second_leg.stop_requested = nullptr;
  second_leg.resume = true;
  const auto resumed = campaign.run(second_leg);
  EXPECT_FALSE(resumed.interrupted);
  ASSERT_EQ(resumed.shards.size(), shard_count);
  EXPECT_TRUE(resumed.shards[0].resumed);
  expect_same_front(reference.front, resumed.front);
  EXPECT_EQ(reference.evaluations, resumed.evaluations);
  for (std::size_t i = 0; i < shard_count; ++i)
    remove_rotation(
        dse::shard_checkpoint_path(first_leg.checkpoint_path, i,
                                   shard_count));
}

// An in-process island keeps one L1 across its migration epochs: every
// evaluation of the island is one lookup in it, and the front is the one
// the same campaign reaches through uncached executors.  Islands run one
// after another and on one thread each.
TEST(Campaign, InProcessIslandKeepsItsCacheAcrossEpochs) {
  GaRig rig;
  const Campaign campaign(rig.arch, rig.apps, rig.backend);
  auto options = campaign_options();
  options.seeds = {11, 22};
  options.ga.generations = 6;
  options.migration_every = 2;

  const core::Evaluator evaluator(rig.arch, rig.apps, rig.backend);
  util::ThreadPool pool(2);
  auto uncached = options;
  uncached.executor_factory = [&](std::size_t) {
    return std::unique_ptr<dse::Executor>(
        std::make_unique<dse::InProcessExecutor>(evaluator, pool));
  };
  const auto reference = campaign.run(uncached);
  EXPECT_GT(reference.migration_epochs, 0u);

  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel islands" : "sequential islands");
    options.parallel_islands = parallel;
    const auto cached = campaign.run(options);
    ASSERT_EQ(cached.shards.size(), options.seeds.size());
    for (const dse::ShardResult& shard : cached.shards) {
      EXPECT_EQ(shard.result.cache.lookups(), shard.result.evaluations)
          << "seed " << shard.seed;
      EXPECT_GT(shard.result.cache.hits, 0u) << "seed " << shard.seed;
    }
    EXPECT_EQ(reference.migration_epochs, cached.migration_epochs);
    expect_same_front(reference.front, cached.front);
    EXPECT_EQ(reference.evaluations, cached.evaluations);
  }
}

TEST(Campaign, ShardCheckpointPaths) {
  EXPECT_EQ(dse::shard_checkpoint_path("", 0, 3), "");
  EXPECT_EQ(dse::shard_checkpoint_path("run.ckpt", 0, 1), "run.ckpt");
  EXPECT_EQ(dse::shard_checkpoint_path("run.ckpt", 0, 3), "run.ckpt.s0");
  EXPECT_EQ(dse::shard_checkpoint_path("run.ckpt", 2, 3), "run.ckpt.s2");
}

}  // namespace
