// Mutation harness for the two binary readers: the checkpoint reader
// (dse::load_checkpoint) and the persistent evaluation store
// (core::verify_store, and EvalStore's open and find).
//
// The corpus is generated here: the `ftmc.ckpt.v1` snapshot of a short GA
// run on the demo system, and the log of a flushed 48-record DT-med store
// (the store's only file).  Each iteration derives mutants from them: bit
// flips (half of them inside the first 64 bytes, where the headers are),
// truncations, and splices of a prefix onto a suffix of the same file; a
// quarter of the store mutants are instead cut at a record boundary and
// then get a run of whole records appended, which is a valid store.  The
// contract:
//
//  - load_checkpoint and verify_store either succeed or throw
//    CheckpointError / StoreError: no crash, no hang, no other exception
//    (CI's asan-ubsan job runs this at FTMC_FUZZ_ITERS=300);
//  - they reject every mutant that changes a digested range or a header
//    field: for a store any change to the log's bytes, except cutting it at
//    a record boundary and appending whole valid records (a store's length
//    is recorded nowhere, so those are valid, smaller or larger stores and
//    must verify); for a checkpoint any change to its header or declared
//    payload (trailing bytes are ignored by design, so those mutants must
//    load);
//  - a production open followed by a find of every stored candidate
//    returns the stored Evaluation, a miss, or a StoreError — never a
//    different Evaluation.
//
// Every failure is SCOPED_TRACE-tagged with the iteration seed; rerun a
// single failing input with FTMC_FUZZ_SEED=<seed> FTMC_FUZZ_ITERS=1.
//
// Environment knobs: FTMC_FUZZ_ITERS (default 40 — the short deterministic
// tier-1 subset; CI's sanitizer job raises it to 300), FTMC_FUZZ_SEED
// (default 2024, the base of the per-iteration seed sequence).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/core/eval_store.hpp"
#include "ftmc/core/serialize.hpp"
#include "ftmc/dse/checkpoint.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/io/text_format.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/byte_stream.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/log.hpp"
#include "ftmc/util/rng.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using fixtures::env_size;
using fixtures::env_u64;
using Bytes = std::vector<std::uint8_t>;

const std::string kDemoPath =
    std::string(FTMC_SOURCE_DIR) + "/examples/systems/demo.ftmc";

std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "ftmc_reader_fuzz_" + name;
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

Bytes evaluation_bytes(const core::Evaluation& evaluation) {
  util::ByteWriter out;
  core::write_evaluation(out, evaluation);
  return out.take();
}

struct StoredEvaluation {
  std::uint64_t key;
  core::Candidate candidate;
  Bytes evaluation;  ///< serialized, so comparisons are bitwise
};

struct Corpus {
  Bytes checkpoint;
  Bytes log;
  std::vector<Bytes> log_records;  ///< the log's records, byte for byte
  std::vector<StoredEvaluation> records;
};

/// The generated artifacts the mutants derive from, built once.
const Corpus& corpus() {
  static const Corpus instance = [] {
    Corpus c;
    const sched::HolisticAnalysis backend;

    const io::SystemSpec demo = io::parse_system_file(kDemoPath);
    dse::GeneticOptimizer optimizer(demo.arch, demo.apps, backend);
    dse::GaOptions options;
    options.population = 8;
    options.offspring = 8;
    options.generations = 3;
    options.seed = 5;
    options.threads = 1;
    options.checkpoint_path = scratch("ga.ckpt");
    (void)optimizer.run(options);
    c.checkpoint = util::read_file(options.checkpoint_path);

    const benchmarks::Benchmark dt_med = benchmarks::dt_med_benchmark();
    const std::string dir = scratch("dtmed_store");
    std::remove((dir + "/evals.log").c_str());
    {
      core::EvalStore store(dir);
      core::Evaluator::Options evaluator_options;
      evaluator_options.store = &store;
      const core::Evaluator evaluator(dt_med.arch, dt_med.apps, backend,
                                      evaluator_options);
      const dse::Decoder decoder(dt_med.arch, dt_med.apps);
      util::Rng rng(17);
      for (int attempt = 0; attempt < 200 && c.records.size() < 48;
           ++attempt) {
        dse::Chromosome chromosome =
            dse::random_chromosome(decoder.shape(), rng);
        const core::Candidate candidate = decoder.decode(chromosome, rng);
        const std::uint64_t key = evaluator.candidate_key(candidate);
        if (std::any_of(c.records.begin(), c.records.end(),
                        [key](const auto& r) { return r.key == key; }))
          continue;
        c.records.push_back(
            {key, candidate, evaluation_bytes(evaluator.evaluate(candidate))});
      }
    }  // the destructor flushes (fsync)
    c.log = util::read_file(dir + "/evals.log");
    // Split the trusted log into its records: a 24-byte header whose bytes
    // [16, 24) hold the two payload lengths, then the payload.
    for (std::size_t at = core::EvalStore::kLogHeaderSize; at < c.log.size();) {
      util::ByteReader lengths(
          std::span(c.log).subspan(at + 16, 8), "corpus record lengths");
      const std::size_t size = core::EvalStore::kRecordHeaderSize +
                               lengths.u32() + lengths.u32();
      c.log_records.emplace_back(c.log.begin() + at,
                                 c.log.begin() + at + size);
      at += size;
    }
    return c;
  }();
  return instance;
}

/// One mutant of `original`.
Bytes mutate(const Bytes& original, util::Rng& rng) {
  Bytes bytes = original;
  switch (rng.index(3)) {
    case 0: {  // flip bits, half of them where the headers are
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t i = 0; i < flips && !bytes.empty(); ++i) {
        const std::size_t span =
            rng.chance(0.5) ? std::min<std::size_t>(64, bytes.size())
                            : bytes.size();
        const std::size_t bit = rng.index(span * 8);
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      return bytes;
    }
    case 1:  // truncate
      bytes.resize(rng.index(bytes.size() + 1));
      return bytes;
    default: {  // splice a prefix onto a suffix of the same file
      // A quarter keep the whole file: pure appends.
      if (!rng.chance(0.25)) bytes.resize(rng.index(original.size() + 1));
      bytes.insert(bytes.end(),
                   original.begin() + static_cast<std::ptrdiff_t>(
                                          rng.index(original.size() + 1)),
                   original.end());
      return bytes;
    }
  }
}

/// A valid store by construction: the corpus log cut at a random record
/// boundary, then a random run of its records appended.
Bytes cut_and_append(const Corpus& c, util::Rng& rng) {
  const std::size_t n = c.log_records.size();
  Bytes log(c.log.begin(), c.log.begin() + core::EvalStore::kLogHeaderSize);
  const auto append = [&log](const Bytes& record) {
    log.insert(log.end(), record.begin(), record.end());
  };
  const std::size_t kept = rng.index(n + 1);
  for (std::size_t i = 0; i < kept; ++i) append(c.log_records[i]);
  const std::size_t from = rng.index(n + 1);
  const std::size_t count = rng.index(n - from + 1);
  for (std::size_t i = from; i < from + count; ++i) append(c.log_records[i]);
  return log;
}

/// True when `log` is the corpus log's header followed by whole records of
/// the corpus log: exactly the mutants that are valid stores.
bool whole_records(const Corpus& c, const Bytes& log) {
  const std::size_t header = core::EvalStore::kLogHeaderSize;
  if (log.size() < header ||
      !std::equal(c.log.begin(), c.log.begin() + header, log.begin()))
    return false;
  for (std::size_t at = header; at < log.size();) {
    const auto record = std::find_if(
        c.log_records.begin(), c.log_records.end(), [&](const Bytes& r) {
          return r.size() <= log.size() - at &&
                 std::equal(r.begin(), r.end(), log.begin() + at);
        });
    if (record == c.log_records.end()) return false;
    at += record->size();
  }
  return true;
}

struct Outcomes {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t found = 0;   ///< finds that returned the stored Evaluation
  std::size_t missed = 0;
  std::size_t errors = 0;  ///< opens or finds that threw StoreError
};

void check_checkpoint_mutant(const Bytes& original, const Bytes& mutant,
                             Outcomes& outcomes) {
  const std::string path = scratch("mutant.ckpt");
  write_bytes(path, mutant);
  bool loaded = false;
  try {
    (void)dse::load_checkpoint(path);
    loaded = true;
  } catch (const dse::CheckpointError&) {
  }
  ++(loaded ? outcomes.accepted : outcomes.rejected);
  const bool appended_only =
      mutant.size() >= original.size() &&
      std::equal(original.begin(), original.end(), mutant.begin());
  EXPECT_EQ(loaded, appended_only)
      << (loaded ? "accepted a mutant that changes the header or payload"
                 : "rejected a mutant that only appends trailing bytes");
}

void check_store_mutant(const Corpus& c, const Bytes& log,
                        Outcomes& outcomes) {
  const std::string dir = scratch("mutant_store");
  std::remove((dir + "/evals.log").c_str());
  ::mkdir(dir.c_str(), 0755);
  write_bytes(dir + "/evals.log", log);

  bool verified = false;
  try {
    (void)core::verify_store(dir);
    verified = true;
  } catch (const core::StoreError&) {
  }
  ++(verified ? outcomes.accepted : outcomes.rejected);
  // Every record digest covers its key, lengths and payload, so any change
  // to the log's bytes must be rejected, except a cut at a record boundary
  // followed by whole valid records: nothing records a store's length.
  EXPECT_EQ(verified, whole_records(c, log))
      << (verified ? "verify_store accepted a changed store"
                   : "verify_store rejected a valid store");

  try {
    core::EvalStore store(dir);
    for (const StoredEvaluation& record : c.records) {
      try {
        const std::optional<core::Evaluation> found =
            store.find(record.key, record.candidate);
        if (!found.has_value()) {
          ++outcomes.missed;
          continue;
        }
        ++outcomes.found;
        EXPECT_EQ(evaluation_bytes(*found), record.evaluation)
            << "find returned a different Evaluation for key " << record.key;
      } catch (const core::StoreError&) {
        ++outcomes.errors;
      }
    }
  } catch (const core::StoreError&) {
    ++outcomes.errors;
  }
}

TEST(ReaderFuzz, MutatedCheckpointsAndStoresFailWithNamedErrors) {
  const std::size_t iters = env_size("FTMC_FUZZ_ITERS", 40);
  const std::uint64_t base_seed = env_u64("FTMC_FUZZ_SEED", 2024);
  std::printf("[ reader fuzz ] FTMC_FUZZ_SEED=%llu FTMC_FUZZ_ITERS=%zu\n",
              static_cast<unsigned long long>(base_seed), iters);
  const Corpus& c = corpus();
  ASSERT_EQ(c.records.size(), 48u);
  ASSERT_EQ(c.log_records.size(), 48u);

  // Damaged records and torn tails are expected here; keep their warnings
  // quiet.
  util::Logger& logger = util::Logger::instance();
  const util::LogLevel level = logger.level();
  logger.set_level(util::LogLevel::kError);

  constexpr std::size_t kCheckpointMutants = 16;
  constexpr std::size_t kStoreMutants = 8;
  Outcomes checkpoints;
  Outcomes stores;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", seed " +
                 std::to_string(seed) + " (rerun just this input with " +
                 "FTMC_FUZZ_SEED=" + std::to_string(seed) +
                 " FTMC_FUZZ_ITERS=1)");
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
    for (std::size_t m = 0; m < kCheckpointMutants; ++m)
      check_checkpoint_mutant(c.checkpoint, mutate(c.checkpoint, rng),
                              checkpoints);
    for (std::size_t m = 0; m < kStoreMutants; ++m)
      check_store_mutant(c,
                         rng.chance(0.25) ? cut_and_append(c, rng)
                                          : mutate(c.log, rng),
                         stores);
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }
  logger.set_level(level);

  // Both outcomes must actually occur, or the contract is half-tested.
  EXPECT_GT(checkpoints.accepted, 0u);
  EXPECT_GT(checkpoints.rejected, 0u);
  EXPECT_GT(stores.accepted, 0u);
  EXPECT_GT(stores.rejected, 0u);
  EXPECT_GT(stores.found, 0u);
  EXPECT_GT(stores.errors, 0u);
  std::printf("[ reader fuzz ] checkpoints %zu loaded / %zu rejected; "
              "stores %zu verified / %zu rejected, finds %zu hit / %zu "
              "missed / %zu StoreError\n",
              checkpoints.accepted, checkpoints.rejected, stores.accepted,
              stores.rejected, stores.found, stores.missed, stores.errors);
}

}  // namespace
