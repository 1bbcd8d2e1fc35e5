// Tests for the persistent memory-mapped evaluation store (eval_store.hpp):
// round-trip and reopen persistence, torn-tail crash recovery (including a
// real fork + SIGKILL), damaged records and headers (open, the read-time
// checks and verify_store), cross-process sharing (a reader beside a writer,
// an open beside an append in flight, two concurrent flushes), and the L1
// (EvaluationCache) / L2 (EvalStore) flow through the Evaluator and the GA.
// tests/test_reader_fuzz.cpp mutates whole stores at random.
#include "ftmc/core/eval_store.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ftmc/core/evaluation_cache.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/file_io.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using core::Candidate;
using core::EvalStore;
using core::EvalStoreOptions;
using core::Evaluation;
using core::StoreError;

/// Fresh (pre-cleaned) store directory under gtest's temp dir: leftover
/// files from a previous run must not leak into this one.
std::string fresh_store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ftmc_store_" + name;
  std::remove((dir + "/evals.log").c_str());
  ::rmdir(dir.c_str());
  return dir;
}

Candidate make_candidate(std::uint64_t variant) {
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  Candidate candidate = fixtures::plain_candidate(arch, apps);
  for (std::size_t i = 0; i < candidate.base_mapping.size(); ++i)
    candidate.base_mapping[i] = model::ProcessorId{static_cast<std::uint32_t>(
        (i + variant) % arch.processor_count())};
  candidate.drop[0] = (variant % 2) != 0;
  return candidate;
}

Evaluation make_evaluation(std::uint64_t variant) {
  Evaluation evaluation;
  evaluation.mapping_valid = true;
  evaluation.reliability_ok = (variant % 2) == 0;
  evaluation.normal_schedulable = true;
  evaluation.critical_schedulable = (variant % 3) != 0;
  evaluation.power = 100.0 + 0.5 * static_cast<double>(variant);
  evaluation.service = 1.0 / static_cast<double>(variant + 1);
  evaluation.scenario_count = 10 + variant;
  evaluation.scenario_solves = 20 + variant;
  evaluation.graph_wcrt = {static_cast<model::Time>(100 + variant),
                           static_cast<model::Time>(200 + variant)};
  return evaluation;
}

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.mapping_valid, b.mapping_valid);
  EXPECT_EQ(a.reliability_ok, b.reliability_ok);
  EXPECT_EQ(a.normal_schedulable, b.normal_schedulable);
  EXPECT_EQ(a.critical_schedulable, b.critical_schedulable);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.scenario_count, b.scenario_count);
  EXPECT_EQ(a.scenario_solves, b.scenario_solves);
  EXPECT_EQ(a.graph_wcrt, b.graph_wcrt);
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_size);
}

/// Overwrites `bytes` at `offset` of the file at `path`.
void patch_file(const std::string& path, long offset,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// The StoreError message of `action`, or "" when it does not throw one.
template <typename Action>
std::string store_error_of(Action&& action) {
  try {
    action();
  } catch (const StoreError& error) {
    return error.what();
  }
  return {};
}

/// Log offset of the first record (right after the 16-byte log header).
constexpr long kFirstRecord = 16;

// --- Round-trip and persistence ---------------------------------------------

TEST(EvalStore, RoundTripWithinOneOpen) {
  const std::string dir = fresh_store_dir("roundtrip");
  EvalStore store(dir);
  for (std::uint64_t i = 0; i < 8; ++i)
    store.put(1000 + i, make_candidate(i), make_evaluation(i));
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto found = store.find(1000 + i, make_candidate(i));
    ASSERT_TRUE(found.has_value()) << i;
    expect_same_evaluation(*found, make_evaluation(i));
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.appends, 8u);
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.hits, 8u);
}

TEST(EvalStore, SurvivesReopen) {
  const std::string dir = fresh_store_dir("reopen");
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 5; ++i)
      store.put(i, make_candidate(i), make_evaluation(i));
  }  // destructor flushes (fsync)
  EvalStore reopened(dir);
  EXPECT_EQ(reopened.stats().records, 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto found = reopened.find(i, make_candidate(i));
    ASSERT_TRUE(found.has_value()) << i;
    expect_same_evaluation(*found, make_evaluation(i));
  }
}

TEST(EvalStore, HashCollisionDegradesToMiss) {
  const std::string dir = fresh_store_dir("collision");
  EvalStore store(dir);
  store.put(7, make_candidate(0), make_evaluation(0));
  // Same key, different candidate bytes: must be a miss, never the wrong
  // evaluation.
  EXPECT_FALSE(store.find(7, make_candidate(1)).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_TRUE(store.find(7, make_candidate(0)).has_value());
}

TEST(EvalStore, DuplicatePutIsSkipped) {
  const std::string dir = fresh_store_dir("dup");
  EvalStore store(dir);
  store.put(3, make_candidate(0), make_evaluation(0));
  store.put(3, make_candidate(0), make_evaluation(0));
  EXPECT_EQ(store.stats().appends, 1u);
  EXPECT_EQ(store.stats().records, 1u);
}

TEST(EvalStore, ReadOnlyRejectsPut) {
  const std::string dir = fresh_store_dir("readonly");
  { EvalStore store(dir); store.put(1, make_candidate(1), make_evaluation(1)); }
  EvalStoreOptions options;
  options.read_only = true;
  EvalStore store(dir, options);
  EXPECT_TRUE(store.find(1, make_candidate(1)).has_value());
  EXPECT_THROW(store.put(2, make_candidate(2), make_evaluation(2)),
               StoreError);
}

// --- Corruption and crash safety --------------------------------------------

TEST(EvalStore, BadLogMagicIsAStoreError) {
  const std::string dir = fresh_store_dir("logmagic");
  { EvalStore store(dir); store.put(1, make_candidate(1), make_evaluation(1)); }
  std::FILE* f = std::fopen((dir + "/evals.log").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTSTORE", f);
  std::fclose(f);
  EXPECT_THROW(EvalStore store(dir), StoreError);
}

TEST(EvalStore, TornTailTruncatedLoudlyByDefault) {
  const std::string dir = fresh_store_dir("torn");
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 4; ++i)
      store.put(i, make_candidate(i), make_evaluation(i));
  }
  // Append half a record header: a crash mid-append tears exactly like this.
  const std::string log = dir + "/evals.log";
  std::FILE* f = std::fopen(log.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::uint8_t garbage[10] = {0xDE, 0xAD, 0xBE, 0xEF, 0xDE,
                                    0xAD, 0xBE, 0xEF, 0xDE, 0xAD};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  const std::uint64_t torn_size = file_size(log);

  EvalStore store(dir);
  EXPECT_EQ(store.stats().torn_bytes_discarded, sizeof(garbage));
  EXPECT_EQ(store.stats().records, 4u);
  EXPECT_LT(file_size(log), torn_size);  // tail truncated on disk
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(store.find(i, make_candidate(i)).has_value()) << i;
}

TEST(EvalStore, VerifyStoreRejectsTornTail) {
  const std::string dir = fresh_store_dir("strict");
  {
    EvalStore store(dir);
    store.put(1, make_candidate(1), make_evaluation(1));
  }
  EXPECT_EQ(core::verify_store(dir), 1u);
  std::FILE* f = std::fopen((dir + "/evals.log").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn!", f);
  std::fclose(f);
  const std::string error =
      store_error_of([&] { (void)core::verify_store(dir); });
  EXPECT_NE(error.find("torn record header at offset"), std::string::npos)
      << error;
}

// A damaged record anywhere in the log ends the valid log at open, exactly
// like a torn tail: the digest covers the key and both lengths as well as
// the payload, so each flip is caught.  A writable open truncates there, a
// read-only open stops reading there; the records after it become misses.
TEST(EvalStore, OpenEndsTheLogAtTheFirstDamagedRecord) {
  const std::string dir = fresh_store_dir("damaged");
  const std::string log = dir + "/evals.log";
  std::vector<std::uint64_t> ends;  // log size after each append
  {
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 4; ++i) {
      store.put(i, make_candidate(i), make_evaluation(i));
      ends.push_back(file_size(log));
    }
  }
  const std::vector<std::uint8_t> intact = util::read_file(log);
  const std::uint64_t second = ends[0];
  const std::uint64_t torn = intact.size() - second;
  const auto expect_first_record_only = [&](EvalStore& store) {
    EXPECT_EQ(store.stats().records, 1u);
    EXPECT_EQ(store.stats().log_bytes, second);
    EXPECT_EQ(store.stats().torn_bytes_discarded, torn);
    EXPECT_TRUE(store.find(0, make_candidate(0)).has_value());
    for (std::uint64_t i = 1; i < 4; ++i)
      EXPECT_FALSE(store.find(i, make_candidate(i)).has_value()) << i;
  };
  // Record layout: digest u64 | key u64 | cand_bytes u32 | eval_bytes u32 |
  // payload.  Flip a key byte, a length byte and a payload byte.
  for (const std::uint64_t at : {second + 8, second + 16, second + 24 + 5}) {
    SCOPED_TRACE("flipped byte at offset " + std::to_string(at));
    std::vector<std::uint8_t> damaged = intact;
    damaged[at] ^= 0x01;
    util::write_file_atomic(log, damaged);

    const std::string error =
        store_error_of([&] { (void)core::verify_store(dir); });
    EXPECT_NE(error.find("record that fails its digest at offset " +
                         std::to_string(second)),
              std::string::npos)
        << error;

    EvalStoreOptions read_only;
    read_only.read_only = true;
    {
      EvalStore store(dir, read_only);
      expect_first_record_only(store);
    }
    EXPECT_EQ(util::read_file(log), damaged);  // a read-only open writes nothing

    {
      EvalStore store(dir);
      expect_first_record_only(store);
    }
    EXPECT_EQ(file_size(log), second);  // truncated at the damaged record
    EXPECT_EQ(core::verify_store(dir), 1u);
  }
}

// Every record read verifies the record digest again, because the file can
// change under an open store: a flipped evaluation byte of a record that
// open() already verified is a StoreError naming the offset, never a
// different Evaluation.
TEST(EvalStore, FindRejectsARecordThatFailsItsDigest) {
  const std::string dir = fresh_store_dir("digest");
  { EvalStore store(dir); store.put(5, make_candidate(5), make_evaluation(5)); }
  const std::string log = dir + "/evals.log";
  EvalStore store(dir);
  const auto last = static_cast<long>(file_size(log)) - 1;  // last wcrt byte
  patch_file(log, last, {0x7F});
  const std::string error =
      store_error_of([&] { (void)store.find(5, make_candidate(5)); });
  EXPECT_NE(error.find("record at offset 16 fails its digest"),
            std::string::npos)
      << error;
  EXPECT_NE(store_error_of([&] {
              store.put(5, make_candidate(5), make_evaluation(5));
            }),
            "");
}

// A record header's declared length is untrusted: one flipped high byte of
// cand_bytes (record bytes [16, 20)) of a record open() already verified
// declares a ~4 GiB payload, which must be a StoreError naming the offset,
// not a multi-GiB allocation.
TEST(EvalStore, DeclaredRecordLengthIsBoundedByTheLog) {
  const std::string dir = fresh_store_dir("length");
  { EvalStore store(dir); store.put(2, make_candidate(2), make_evaluation(2)); }
  EvalStore store(dir);
  patch_file(dir + "/evals.log", kFirstRecord + 16 + 3, {0xF0});
  const std::string error =
      store_error_of([&] { (void)store.find(2, make_candidate(2)); });
  EXPECT_NE(error.find("record at offset 16 declares a"), std::string::npos)
      << error;
}

TEST(EvalStore, NonZeroReservedLogFieldIsAStoreError) {
  const std::string dir = fresh_store_dir("log_reserved");
  { EvalStore store(dir); store.put(1, make_candidate(1), make_evaluation(1)); }
  patch_file(dir + "/evals.log", 12, {1});
  const std::string error = store_error_of([&] { EvalStore store(dir); });
  EXPECT_NE(error.find("reserved header field 1, expected 0"),
            std::string::npos)
      << error;
}

TEST(EvalStore, VersionOneLogIsAStoreError) {
  const std::string dir = fresh_store_dir("version1");
  { EvalStore store(dir); store.put(1, make_candidate(1), make_evaluation(1)); }
  patch_file(dir + "/evals.log", 8, {1});  // version u32 = 1
  for (const std::string& error :
       {store_error_of([&] { EvalStore store(dir); }),
        store_error_of([&] { (void)core::verify_store(dir); })})
    EXPECT_NE(error.find("unsupported evaluation store version 1"),
              std::string::npos)
        << error;
}

TEST(EvalStore, KillNineMidRunRecoversEveryFullRecord) {
  const std::string dir = fresh_store_dir("kill9");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: append records, then die without flush(), destructors, or an
    // index write — exactly what kill -9 during a campaign looks like.
    EvalStore store(dir);
    for (std::uint64_t i = 0; i < 7; ++i)
      store.put(i, make_candidate(i), make_evaluation(i));
    ::raise(SIGKILL);
    ::_exit(127);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Nothing was flushed; reopen must recover all 7 from the log.
  EvalStore store(dir);
  EXPECT_EQ(store.stats().records, 7u);
  EXPECT_EQ(store.stats().torn_bytes_discarded, 0u);
  for (std::uint64_t i = 0; i < 7; ++i) {
    const auto found = store.find(i, make_candidate(i));
    ASSERT_TRUE(found.has_value()) << i;
    expect_same_evaluation(*found, make_evaluation(i));
  }
}

TEST(EvalStore, SecondProcessReadsWhatTheFirstWrote) {
  const std::string dir = fresh_store_dir("twoproc");
  EvalStore writer(dir);
  for (std::uint64_t i = 0; i < 5; ++i)
    writer.put(i, make_candidate(i), make_evaluation(i));
  writer.flush();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: independent read-only open against the live store.
    int failures = 0;
    try {
      EvalStoreOptions options;
      options.read_only = true;
      EvalStore reader(dir, options);
      for (std::uint64_t i = 0; i < 5; ++i) {
        const auto found = reader.find(i, make_candidate(i));
        if (!found.has_value() || found->power != make_evaluation(i).power)
          ++failures;
      }
    } catch (...) {
      failures = 100;
    }
    ::_exit(failures);
  }
  // Parent keeps appending while the child reads.
  for (std::uint64_t i = 5; i < 10; ++i)
    writer.put(i, make_candidate(i), make_evaluation(i));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(writer.stats().records, 10u);
}

// An open must not mistake another process's append in flight for a torn
// tail, which it would truncate: it takes the append lock before it sizes
// the log.  A forked writer appends kAppends records while this process
// opens the same store writable in a loop until the writer exits.  Without
// the lock, an open cuts an append in flight in most rounds, and the log
// loses every record from the cut on.
TEST(EvalStore, OpenDoesNotTruncateAnAppendInFlight) {
  constexpr std::uint64_t kAppends = 3000;
  constexpr int kRounds = 6;
  std::vector<Candidate> candidates;
  for (std::uint64_t variant = 0; variant < 6; ++variant)
    candidates.push_back(make_candidate(variant));
  const auto candidate_of = [&](std::uint64_t key) -> const Candidate& {
    return candidates[key % candidates.size()];
  };
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string dir = fresh_store_dir("open_vs_append");
    { EvalStore create(dir); }  // the log header exists before the race
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int code = 0;
      try {
        EvalStore writer(dir);
        for (std::uint64_t key = 0; key < kAppends; ++key)
          writer.put(key, candidate_of(key), make_evaluation(key));
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    std::uint64_t torn = 0;
    int opens = 0;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      const EvalStore opener(dir);
      torn += opener.stats().torn_bytes_discarded;
      ++opens;
    }
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_EQ(torn, 0u) << "over " << opens << " opens";
    EvalStore store(dir);
    EXPECT_EQ(store.stats().torn_bytes_discarded, 0u);
    EXPECT_EQ(store.stats().records, kAppends);
    std::uint64_t found = 0;
    for (std::uint64_t key = 0; key < kAppends; ++key)
      found += store.find(key, candidate_of(key)).has_value() ? 1 : 0;
    EXPECT_EQ(found, kAppends);
  }
}

// Two processes that share a store and flush at the same moment (two
// `ftmc serve` daemons on one --cache-dir, stopped by one signal) must both
// succeed, and a reopen must find every record either of them appended.
TEST(EvalStore, ConcurrentFlushesBothSucceed) {
  constexpr std::uint64_t kPerWriter = 40;
  const std::string dir = fresh_store_dir("concurrent_flush");
  { EvalStore create(dir); }
  int ready[2];
  int go[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(go), 0);
  pid_t writers[2];
  for (std::uint64_t w = 0; w < 2; ++w) {
    writers[w] = ::fork();
    ASSERT_GE(writers[w], 0);
    if (writers[w] == 0) {
      int code = 0;
      try {
        EvalStore store(dir);
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
          const std::uint64_t key = w * kPerWriter + i;
          store.put(key, make_candidate(key), make_evaluation(key));
        }
        // Meet the sibling at the barrier, then flush together.
        char byte = 0;
        if (::write(ready[1], "r", 1) != 1 || ::read(go[0], &byte, 1) != 1)
          code = 2;
        store.flush();
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
  }
  char bytes[2];
  for (std::size_t got = 0; got < sizeof bytes;) {
    const ssize_t n = ::read(ready[0], bytes + got, sizeof bytes - got);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  ASSERT_EQ(::write(go[1], "gg", 2), 2);
  for (const int fd : {ready[0], ready[1], go[0], go[1]}) ::close(fd);
  for (const pid_t pid : writers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  EvalStore store(dir);
  EXPECT_EQ(store.stats().records, 2 * kPerWriter);
  for (std::uint64_t key = 0; key < 2 * kPerWriter; ++key)
    EXPECT_TRUE(store.find(key, make_candidate(key)).has_value()) << key;
}

// --- Evaluator L1/L2 flow ---------------------------------------------------

TEST(EvalStore, EvaluatorServesFromStoreAcrossInstances) {
  const std::string dir = fresh_store_dir("evaluator");
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis backend;
  const Candidate candidate = fixtures::plain_candidate(arch, apps);

  Evaluation fresh;
  {
    EvalStore store(dir);
    core::Evaluator::Options options;
    options.store = &store;
    const core::Evaluator evaluator(arch, apps, backend, options);
    bool cache_hit = true;
    fresh = evaluator.evaluate(candidate, &cache_hit);
    EXPECT_FALSE(cache_hit);
    EXPECT_EQ(store.stats().appends, 1u);
  }

  // A brand-new process-equivalent: new store handle, new evaluator, no L1.
  EvalStore store(dir);
  core::Evaluator::Options options;
  options.store = &store;
  const core::Evaluator evaluator(arch, apps, backend, options);
  bool cache_hit = false;
  const Evaluation persisted = evaluator.evaluate(candidate, &cache_hit);
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(store.stats().hits, 1u);
  expect_same_evaluation(fresh, persisted);
  expect_same_evaluation(persisted, evaluator.evaluate_uncached(candidate));
}

TEST(EvalStore, StoreHitWarmsTheL1) {
  const std::string dir = fresh_store_dir("warml1");
  const model::Architecture arch = fixtures::test_arch(3);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis backend;
  const Candidate candidate = fixtures::plain_candidate(arch, apps);

  {
    EvalStore store(dir);
    core::Evaluator::Options options;
    options.store = &store;
    const core::Evaluator evaluator(arch, apps, backend, options);
    (void)evaluator.evaluate(candidate);
  }

  EvalStore store(dir);
  core::EvaluationCache cache;
  core::Evaluator::Options options;
  options.cache = &cache;
  options.store = &store;
  const core::Evaluator evaluator(arch, apps, backend, options);
  (void)evaluator.evaluate(candidate);  // L1 miss -> L2 hit, warms L1
  (void)evaluator.evaluate(candidate);  // L1 hit, store untouched
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(EvalStore, WarmStoreReplaysGaCampaignWithoutFreshEvaluations) {
  const std::string dir = fresh_store_dir("ga");
  const model::Architecture arch = fixtures::test_arch(2);
  const model::ApplicationSet apps = fixtures::small_mixed_apps();
  const sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer(arch, apps, backend);

  dse::GaOptions options;
  options.population = 8;
  options.offspring = 8;
  options.generations = 4;
  options.seed = 7;
  options.threads = 2;

  const auto expect_same_campaign = [](const dse::GaResult& a,
                                       const dse::GaResult& b) {
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.best_feasible_power, b.best_feasible_power);
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (std::size_t i = 0; i < a.pareto.size(); ++i)
      EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives);
  };
  // The same campaign with no store attached is the reference.
  const dse::GaResult plain = optimizer.run(options);

  {
    // A cold store computes and appends every evaluation, and does not
    // move the trajectory.
    EvalStore store(dir);
    options.evaluator.store = &store;
    const dse::GaResult cold = optimizer.run(options);
    EXPECT_GT(store.stats().appends, 0u);
    EXPECT_EQ(store.stats().hits, 0u);
    expect_same_campaign(plain, cold);
  }
  {
    // Same campaign against the warm store: every evaluation is served
    // from disk, nothing new is appended, and the trajectory is identical.
    EvalStore store(dir);
    options.evaluator.store = &store;
    const dse::GaResult warm = optimizer.run(options);
    EXPECT_EQ(store.stats().appends, 0u);
    EXPECT_GT(store.stats().hits, 0u);
    expect_same_campaign(plain, warm);
  }
}

TEST(EvalStore, StoreDirectoryShardsBySystemDigest) {
  EXPECT_EQ(core::store_directory("/tmp/cache", 0x0123456789abcdefULL),
            "/tmp/cache/sys-0123456789abcdef");
  EXPECT_EQ(core::store_directory("rel", 0), "rel/sys-0000000000000000");
}

}  // namespace
