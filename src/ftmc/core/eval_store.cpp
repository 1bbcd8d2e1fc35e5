#include "ftmc/core/eval_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "ftmc/core/serialize.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/util/byte_stream.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/log.hpp"

namespace ftmc::core {
namespace {

struct StoreCounters {
  obs::Counter hits{"store.hits"};
  obs::Counter misses{"store.misses"};
  obs::Counter appends{"store.appends"};
  obs::Counter torn_bytes{"store.torn_bytes"};
};

StoreCounters& counters() {
  static StoreCounters instance;
  return instance;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw StoreError(what + " '" + path + "': " + std::strerror(errno));
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return value;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return value;
}

void store_u64(std::uint8_t* p, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/// Holds flock(2) on `fd` for its scope: LOCK_EX serializes appends and
/// writable opens across processes, LOCK_SH lets read-only opens share.
class FileLock {
 public:
  FileLock(int fd, int operation, const std::string& path) : fd_(fd) {
    while (::flock(fd_, operation) != 0)
      if (errno != EINTR) fail("cannot lock evaluation store log", path);
  }
  ~FileLock() { ::flock(fd_, LOCK_UN); }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot append to evaluation store log", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void pread_all(int fd, std::uint8_t* data, std::size_t size,
               std::uint64_t offset, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot read evaluation store log", path);
    }
    if (n == 0)
      throw StoreError("evaluation store log '" + path +
                       "' shrank while reading (concurrent truncation?)");
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t file_size_of(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) fail("cannot stat evaluation store file", path);
  return static_cast<std::uint64_t>(st.st_size);
}

/// Throws StoreError unless `header` — the first kLogHeaderSize bytes of a
/// log of `size` bytes (unread when shorter) — is a sound log header.
void check_log_header(const std::uint8_t* header, std::uint64_t size,
                      const std::string& path) {
  const std::string log = "evaluation store log '" + path + "'";
  if (size < EvalStore::kLogHeaderSize)
    throw StoreError(log + " is truncated: " + std::to_string(size) +
                     " bytes is shorter than the 16-byte header");
  if (std::memcmp(header, EvalStore::kLogMagic, 8) != 0)
    throw StoreError("not an ftmc evaluation store: magic bytes of '" + path +
                     "' are not \"FTMCSTOR\"");
  if (const std::uint32_t version = load_u32(header + 8);
      version != EvalStore::kVersion)
    throw StoreError("unsupported evaluation store version " +
                     std::to_string(version) + " in '" + path +
                     "' (this build reads v" +
                     std::to_string(EvalStore::kVersion) + ")");
  if (const std::uint32_t reserved = load_u32(header + 12); reserved != 0)
    throw StoreError(log + " has reserved header field " +
                     std::to_string(reserved) + ", expected 0");
}

/// Where a walk over a run of log records stopped: after `consumed` bytes
/// of complete records whose digests match, at `defect` (nullptr when the
/// run ended exactly at a record boundary).
struct WalkEnd {
  std::size_t consumed = 0;
  const char* defect = nullptr;
};

/// The digest a record stores in its first 8 bytes: the word-wise digest of
/// every record byte after it (key, both lengths, payload).
std::uint64_t record_digest(std::span<const std::uint8_t> record) {
  return util::word_digest(record.subspan(8));
}

/// The one log-record walker (open, verify_store): calls visit(key, offset
/// within `bytes`) for each complete, digest-verified record from the start
/// of `bytes`, in place, and stops at the first torn or damaged one.
template <typename Visit>
WalkEnd walk_records(std::span<const std::uint8_t> bytes, Visit&& visit) {
  constexpr std::size_t kHeader = EvalStore::kRecordHeaderSize;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t left = bytes.size() - off;
    if (left < kHeader) return {off, "torn record header"};
    const std::uint8_t* record = bytes.data() + off;
    const std::uint64_t payload =
        std::uint64_t{load_u32(record + 16)} + load_u32(record + 20);
    if (payload > left - kHeader) return {off, "torn record payload"};
    const std::size_t size = kHeader + static_cast<std::size_t>(payload);
    if (record_digest({record, size}) != load_u64(record))
      return {off, "record that fails its digest"};
    visit(load_u64(record + 8), off);
    off += size;
  }
  return {off, nullptr};
}

}  // namespace

EvalStore::EvalStore(std::string dir, EvalStoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (!options_.read_only) {
    // mkdir -p: a --cache-dir root need not pre-exist.
    for (std::size_t slash = dir_.find('/', 1); slash != std::string::npos;
         slash = dir_.find('/', slash + 1)) {
      const std::string parent = dir_.substr(0, slash);
      if (::mkdir(parent.c_str(), 0755) != 0 && errno != EEXIST)
        fail("cannot create evaluation store directory", parent);
    }
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
      fail("cannot create evaluation store directory", dir_);
  }
  try {
    open_log();
  } catch (...) {
    unmap_log();
    if (log_fd_ >= 0) ::close(log_fd_);
    log_fd_ = -1;
    throw;
  }
}

EvalStore::~EvalStore() {
  if (!options_.read_only && log_fd_ >= 0) {
    try {
      flush();
    } catch (const std::exception& error) {
      util::log_warn("evaluation store '", dir_,
                     "': flush on close failed: ", error.what());
    }
  }
  unmap_log();
  if (log_fd_ >= 0) ::close(log_fd_);
}

void EvalStore::open_log() {
  const std::string path = log_path();
  const int flags =
      options_.read_only ? O_RDONLY : (O_RDWR | O_CREAT);
  log_fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (log_fd_ < 0) fail("cannot open evaluation store log", path);
  // The append lock is held from the size check through the walk and any
  // truncation: unlocked, another process's append in flight would look
  // exactly like a torn tail and be cut off.
  const FileLock lock(log_fd_, options_.read_only ? LOCK_SH : LOCK_EX, path);
  std::uint64_t size = file_size_of(log_fd_, path);
  if (size == 0) {
    if (options_.read_only) return;  // empty store: no header yet
    util::ByteWriter header;
    for (std::size_t i = 0; i < 8; ++i)
      header.u8(static_cast<std::uint8_t>(kLogMagic[i]));
    header.u32(kVersion);
    header.u32(0);  // reserved
    const std::vector<std::uint8_t> bytes = header.take();
    write_all(log_fd_, bytes.data(), bytes.size(), path);
    size = kLogHeaderSize;
  }
  map_log(size);
  check_log_header(log_map_, size, path);
  const WalkEnd end = walk_records(
      {log_map_ + kLogHeaderSize, log_map_size_ - kLogHeaderSize},
      [&](std::uint64_t key, std::size_t off) {
        offsets_[key] = kLogHeaderSize + off;  // a later record wins
      });
  const std::uint64_t valid_end = kLogHeaderSize + end.consumed;
  stats_.records = offsets_.size();
  stats_.log_bytes = valid_end;
  if (end.defect == nullptr) return;
  const std::uint64_t torn = size - valid_end;
  util::log_warn("evaluation store '", dir_, "': discarding ", torn,
                 "-byte log tail at offset ", valid_end, " (", end.defect,
                 "); ", offsets_.size(), " records before it recovered");
  stats_.torn_bytes_discarded = torn;
  counters().torn_bytes.add(torn);
  if (!options_.read_only &&
      ::ftruncate(log_fd_, static_cast<off_t>(valid_end)) != 0)
    fail("cannot truncate damaged evaluation store log", path);
  // Reads from the map stay inside the valid log.
  unmap_log();
  map_log(valid_end);
}

void EvalStore::map_log(std::uint64_t length) {
  void* map = ::mmap(nullptr, static_cast<std::size_t>(length), PROT_READ,
                     MAP_SHARED, log_fd_, 0);
  if (map == MAP_FAILED) fail("cannot mmap evaluation store log", log_path());
  log_map_ = static_cast<const std::uint8_t*>(map);
  log_map_size_ = static_cast<std::size_t>(length);
}

void EvalStore::unmap_log() {
  if (log_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(log_map_), log_map_size_);
  log_map_ = nullptr;
  log_map_size_ = 0;
}

std::optional<Evaluation> EvalStore::read_record_locked(
    std::uint64_t offset, std::uint64_t key,
    const Candidate& candidate) const {
  const auto damaged = [&](const std::string& what) {
    return StoreError("evaluation store log '" + log_path() +
                      "' record at offset " + std::to_string(offset) + " " +
                      what);
  };
  std::uint8_t header[kRecordHeaderSize];
  if (offset + kRecordHeaderSize <= log_map_size_)
    std::memcpy(header, log_map_ + offset, sizeof header);
  else
    pread_all(log_fd_, header, sizeof header, offset, log_path());
  const std::uint64_t payload =
      std::uint64_t{load_u32(header + 16)} + load_u32(header + 20);
  const std::uint64_t body_at = offset + kRecordHeaderSize;
  std::vector<std::uint8_t> copy;
  const std::uint8_t* record = nullptr;
  if (body_at + payload <= log_map_size_) {
    record = log_map_ + offset;
  } else {
    // Past the mapped log (appended since the open): the declared length
    // is untrusted until it fits inside the log.
    const std::uint64_t log_end = file_size_of(log_fd_, log_path());
    const std::uint64_t held = log_end > body_at ? log_end - body_at : 0;
    if (payload > held)
      throw damaged("declares a " + std::to_string(payload) +
                    "-byte payload but the log holds " +
                    std::to_string(held) + " bytes past its header");
    copy.resize(kRecordHeaderSize + static_cast<std::size_t>(payload));
    pread_all(log_fd_, copy.data(), copy.size(), offset, log_path());
    record = copy.data();
  }
  const std::size_t size =
      kRecordHeaderSize + static_cast<std::size_t>(payload);
  if (record_digest({record, size}) != load_u64(record))
    throw damaged("fails its digest");
  if (load_u64(record + 8) != key)
    throw damaged("does not carry the key it was found under");
  try {
    util::ByteReader in({record + kRecordHeaderSize, size - kRecordHeaderSize},
                        "store record");
    const Candidate stored = read_candidate(in);
    if (!(stored == candidate)) return std::nullopt;  // collision -> miss
    return read_evaluation(in);
  } catch (const util::ByteStreamError& error) {
    throw damaged(std::string("is corrupted: ") + error.what());
  }
}

std::optional<Evaluation> EvalStore::find(std::uint64_t key,
                                          const Candidate& candidate) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = offsets_.find(key); it != offsets_.end()) {
    std::optional<Evaluation> evaluation =
        read_record_locked(it->second, key, candidate);
    if (evaluation.has_value()) {
      ++stats_.hits;
      counters().hits.add(1);
      return evaluation;
    }
  }
  ++stats_.misses;
  counters().misses.add(1);
  return std::nullopt;
}

void EvalStore::put(std::uint64_t key, const Candidate& candidate,
                    const Evaluation& evaluation) {
  if (options_.read_only)
    throw StoreError("evaluation store '" + dir_ +
                     "' is read-only: put() is not allowed");
  util::ByteWriter body;
  write_candidate(body, candidate);
  const std::size_t cand_bytes = body.size();
  write_evaluation(body, evaluation);
  const std::vector<std::uint8_t> payload = body.take();
  const std::size_t eval_bytes = payload.size() - cand_bytes;

  util::ByteWriter record_writer;
  record_writer.u64(0);  // digest, filled in once the record is complete
  record_writer.u64(key);
  record_writer.u32(static_cast<std::uint32_t>(cand_bytes));
  record_writer.u32(static_cast<std::uint32_t>(eval_bytes));
  std::vector<std::uint8_t> record = record_writer.take();
  record.insert(record.end(), payload.begin(), payload.end());
  store_u64(record.data(), record_digest(record));

  const std::string path = log_path();
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check residency under the lock: a concurrent evaluator may have
  // appended this candidate between the caller's find() and this put(), and
  // duplicate log records are pure bloat.
  const auto resident = offsets_.find(key);
  if (resident != offsets_.end() &&
      read_record_locked(resident->second, key, candidate).has_value())
    return;

  // flock serializes appends (and writable opens) across processes; within
  // the process the mutex already does.  One write(2) per record means a
  // crash can only tear the log's tail, which the record digest detects at
  // the next open.
  off_t offset = 0;
  {
    const FileLock append(log_fd_, LOCK_EX, path);
    offset = ::lseek(log_fd_, 0, SEEK_END);
    if (offset < 0) fail("cannot seek evaluation store log", path);
    write_all(log_fd_, record.data(), record.size(), path);
  }

  if (resident == offsets_.end()) ++stats_.records;
  offsets_[key] = static_cast<std::uint64_t>(offset);
  ++stats_.appends;
  counters().appends.add(1);
}

void EvalStore::flush() {
  if (options_.read_only || log_fd_ < 0) return;
  if (::fsync(log_fd_) != 0)
    fail("cannot fsync evaluation store log", log_path());
}

EvalStoreStats EvalStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string store_directory(const std::string& root,
                            std::uint64_t system_digest) {
  static const char* const kHex = "0123456789abcdef";
  std::string name = "sys-";
  for (int shift = 60; shift >= 0; shift -= 4)
    name.push_back(kHex[(system_digest >> shift) & 0xF]);
  return root + "/" + name;
}

std::uint64_t verify_store(const std::string& dir) {
  const std::string log_path = dir + "/evals.log";
  std::vector<std::uint8_t> log;
  try {
    log = util::read_file(log_path);
  } catch (const std::exception& error) {
    throw StoreError(error.what());
  }
  check_log_header(log.data(), log.size(), log_path);
  std::uint64_t records = 0;
  const WalkEnd end =
      walk_records(std::span(log).subspan(EvalStore::kLogHeaderSize),
                   [&](std::uint64_t, std::size_t) { ++records; });
  if (end.defect != nullptr)
    throw StoreError("evaluation store log '" + log_path + "' has a " +
                     end.defect + " at offset " +
                     std::to_string(EvalStore::kLogHeaderSize + end.consumed));
  return records;
}

}  // namespace ftmc::core
