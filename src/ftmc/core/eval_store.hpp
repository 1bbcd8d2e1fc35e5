// Persistent, memory-mapped, content-addressed evaluation store — the L2
// behind EvaluationCache.
//
// The in-process EvaluationCache (the L1) dies with its process, so every
// campaign shard, resume, and repeated experiment re-pays Algorithm 1 from
// zero.  EvalStore persists (key, Candidate, Evaluation) triples to disk so
// memoized evaluations survive restarts and are shared across campaign
// shards, `ftmc optimize --cache-dir=` invocations, and `ftmc serve`
// clients.  Keys are Evaluator::candidate_key values — the FNV-1a candidate
// content hash seeded with the options fingerprint — and lookups verify the
// stored candidate byte-for-byte, so a hash collision degrades to a miss,
// never a wrong result (the same contract as EvaluationCache).
//
// On-disk layout: one file, evals.log, under the store directory.
//
//   evals.log   append-only record log
//     [0..16)   header: magic "FTMCSTOR" | version u32 | reserved u32
//     records   digest u64 | key u64 | cand_bytes u32 | eval_bytes u32
//               | payload (serialized Candidate then Evaluation,
//                 little-endian field stream of core/serialize.hpp);
//               digest = util::word_digest of every record byte after it
//               (key, both lengths, payload)
//
// Crash safety: appends are a single flock-guarded write(2), so a crash can
// only tear the *tail* of the log.  open() takes the same flock (shared for
// a read-only open), maps the log, verifies every record in place, and
// builds the key -> offset map in memory (a later record of a key wins).
// The first torn or damaged record ends the valid log: a writable open
// truncates the log there loudly, a read-only open stops reading there.
// Every record read (find(), and put()'s residency check) verifies the
// digest again and bounds the declared length by the log, because the file
// can change under an open store, so damage is a StoreError or a miss,
// never a wrong Evaluation.  Records appended after the open are served via
// pread.  verify_store() is the audit path: it walks the whole log and
// throws on the first defect.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "ftmc/core/evaluator.hpp"

namespace ftmc::core {

/// Structural store damage (bad magic/version, an unreadable log, a record
/// read that fails its digest; under verify_store() also a torn or damaged
/// record).  Ordinary misses and collisions are not errors.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EvalStoreOptions {
  /// Opens the log read-only and never truncates it; put() throws.
  bool read_only = false;
};

struct EvalStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t appends = 0;
  std::uint64_t records = 0;    ///< distinct keys currently resident
  std::uint64_t log_bytes = 0;  ///< validated (and mmap'd) log length at open
  std::uint64_t torn_bytes_discarded = 0;
};

class EvalStore {
 public:
  static constexpr std::uint32_t kVersion = 2;
  static constexpr const char* kLogMagic = "FTMCSTOR";
  static constexpr std::size_t kLogHeaderSize = 16;
  static constexpr std::size_t kRecordHeaderSize = 24;

  /// Opens (creating when absent, unless read_only) the store rooted at
  /// directory `dir`.  Throws StoreError on structural damage.
  explicit EvalStore(std::string dir, EvalStoreOptions options = {});
  ~EvalStore();

  EvalStore(const EvalStore&) = delete;
  EvalStore& operator=(const EvalStore&) = delete;

  /// Looks up `key` (an Evaluator::candidate_key) and verifies the stored
  /// candidate matches exactly; a collision counts as a miss.
  std::optional<Evaluation> find(std::uint64_t key,
                                 const Candidate& candidate);

  /// Appends the evaluation for `key` (skipped when an identical candidate
  /// is already resident).  Throws StoreError on a read-only store.
  void put(std::uint64_t key, const Candidate& candidate,
           const Evaluation& evaluation);

  /// fsyncs the log; called by the destructor on writable stores.
  void flush();

  EvalStoreStats stats() const;

  const std::string& directory() const noexcept { return dir_; }
  std::string log_path() const { return dir_ + "/evals.log"; }

 private:
  /// Opens, locks, verifies and maps the log; fills offsets_.
  void open_log();
  void map_log(std::uint64_t length);
  void unmap_log();
  /// The record at `offset`, verified again; nullopt when it holds a
  /// different candidate (a key collision).
  std::optional<Evaluation> read_record_locked(
      std::uint64_t offset, std::uint64_t key,
      const Candidate& candidate) const;

  std::string dir_;
  EvalStoreOptions options_;

  int log_fd_ = -1;
  const std::uint8_t* log_map_ = nullptr;
  std::size_t log_map_size_ = 0;  ///< the validated log at open

  /// Every resident record: key -> log offset of its latest record.
  std::unordered_map<std::uint64_t, std::uint64_t> offsets_;

  mutable std::mutex mutex_;
  EvalStoreStats stats_;
};

/// Store directory for one system under a shared --cache-dir root:
/// "<root>/sys-<16 hex digits of system_digest>".  Store keys hash the
/// *candidate* only, so candidates of unrelated systems can collide
/// byte-for-byte and sharing one store across systems could return a wrong
/// evaluation — each system file therefore gets its own store, keyed by
/// the file's content digest (util::fnv1a_bytes of its bytes).
std::string store_directory(const std::string& root,
                            std::uint64_t system_digest);

/// Audits the store in directory `dir` without opening it for use: the log
/// header (size, magic, version, reserved = 0) and every record's digest,
/// with no torn tail.  Throws StoreError naming the first defect; returns
/// the number of log records.
std::uint64_t verify_store(const std::string& dir);

}  // namespace ftmc::core
