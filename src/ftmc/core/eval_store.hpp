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
// On-disk layout under one directory:
//
//   evals.log   append-only record log
//     [0..16)   header: magic "FTMCSTOR" | version u32 | reserved u32
//     records   key u64 | cand_bytes u32 | eval_bytes u32 | digest u64
//               | payload (serialized Candidate then Evaluation,
//                 little-endian field stream of core/serialize.hpp);
//               digest = fnv1a_bytes(payload)
//
//   evals.idx   open-addressing index snapshot (rewritten atomically)
//     [0..48)   header: magic "FTMCSIDX" | version u32 | reserved u32
//               | slot_count u64 | record_count u64 | log_bytes u64
//               | slots_digest u64
//     slots     slot_count x (key u64, log_offset u64); offset 0 = empty;
//               probe sequence: key & (slot_count-1), linear
//
// Crash safety: appends are a single flock-guarded write(2), so a crash can
// only tear the *tail* of the log.  Every record carries its own payload
// digest; open() walks the log suffix not covered by the index, recovers
// every fully-written record, and truncates the torn tail loudly.  Every
// record read (find(), and put()'s residency check) verifies the digest
// again, so a damaged record inside the indexed prefix is a StoreError,
// never a wrong Evaluation.  The index is a pure cache of the log — when
// missing, stale, or damaged it is rebuilt from the log and the rebuild is
// counted and names the defect.  verify_store() is the audit path: it walks
// the whole log and the index and throws on the first defect.  The log
// prefix and the index are both mmap'd read-only; records appended by this
// process after open are served via pread until flush() remaps.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftmc/core/evaluator.hpp"

namespace ftmc::core {

/// Structural store damage (bad magic/version, unreadable files, a record
/// that fails its digest; under verify_store() also a torn tail or a damaged
/// index).  Ordinary misses and collisions are not errors.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EvalStoreOptions {
  /// Opens the log read-only and never writes the index back; put() throws.
  bool read_only = false;
};

struct EvalStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t appends = 0;
  std::uint64_t records = 0;        ///< distinct keys currently resident
  std::uint64_t bytes_mapped = 0;   ///< log + index bytes mmap'd
  std::uint64_t log_bytes = 0;      ///< validated log length at open
  std::uint64_t torn_bytes_discarded = 0;
  std::uint64_t index_rebuilds = 0;
};

class EvalStore {
 public:
  static constexpr std::uint32_t kVersion = 1;
  static constexpr const char* kLogMagic = "FTMCSTOR";
  static constexpr const char* kIndexMagic = "FTMCSIDX";
  static constexpr std::size_t kLogHeaderSize = 16;
  static constexpr std::size_t kRecordHeaderSize = 24;
  static constexpr std::size_t kIndexHeaderSize = 48;

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

  /// fsyncs the log and atomically rewrites the index to cover it; called
  /// by the destructor on writable stores.
  void flush();

  EvalStoreStats stats() const;

  const std::string& directory() const noexcept { return dir_; }
  std::string log_path() const { return dir_ + "/evals.log"; }
  std::string index_path() const { return dir_ + "/evals.idx"; }

 private:
  void open_log();
  /// Maps a sound index and returns ""; otherwise returns why it was not
  /// loaded (missing file or the header/slots defect).
  std::string load_index();
  void scan_log_tail(std::uint64_t from);
  void map_log(std::uint64_t length);
  void map_index(std::uint64_t file_size);
  void unmap_all();
  void persist_index_locked();
  void absorb_sibling_records_locked();
  bool index_lookup(std::uint64_t key, std::uint64_t* offset) const;
  std::optional<Evaluation> read_record_locked(std::uint64_t offset,
                                               std::uint64_t key,
                                               const Candidate& candidate,
                                               bool* candidate_matches) const;
  void update_mapped_gauge_locked() const;

  std::string dir_;
  EvalStoreOptions options_;

  int log_fd_ = -1;
  std::uint64_t log_file_size_ = 0;  ///< size observed at open
  const std::uint8_t* log_map_ = nullptr;
  std::size_t log_map_size_ = 0;
  std::uint64_t log_valid_end_ = 0;  ///< validated log length (>= mapped)
  std::uint64_t overlay_end_ = 0;    ///< end of the last record this
                                     ///< process appended (index coverage)

  const std::uint8_t* idx_map_ = nullptr;
  std::size_t idx_map_size_ = 0;
  std::uint64_t idx_slot_count_ = 0;
  std::uint64_t idx_record_count_ = 0;

  /// Records not covered by the mapped index: the tail scanned at open plus
  /// everything put() since the last flush().  Key -> log offset.
  std::unordered_map<std::uint64_t, std::uint64_t> overlay_;

  mutable std::mutex mutex_;
  mutable EvalStoreStats stats_;
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
/// header (size, magic, version, reserved = 0), every record's digest with
/// no torn tail, and — when evals.idx exists — the index header (magic,
/// version, reserved = 0, power-of-two slot count, file size, coverage
/// inside the log and on a record boundary, slots digest) and every
/// occupied slot (on a record boundary of the same key, below the covered
/// end; occupied slots = the header's record count).  Throws StoreError
/// naming the first defect; returns the number of log records.
std::uint64_t verify_store(const std::string& dir);

}  // namespace ftmc::core
