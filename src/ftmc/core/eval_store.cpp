#include "ftmc/core/eval_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
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
  obs::Counter rebuilds{"store.index.rebuilds"};
  obs::Counter torn_bytes{"store.torn_bytes"};
  obs::Gauge bytes_mapped{"store.bytes_mapped"};
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

/// The first defect of index file `file` against a log of `log_size`
/// bytes — header fields, then the slots digest — or "" when it is sound.
/// Phrased to follow "index '<path>' ".
std::string index_defect(std::span<const std::uint8_t> file,
                         std::uint64_t log_size) {
  if (file.size() < EvalStore::kIndexHeaderSize)
    return "is truncated: " + std::to_string(file.size()) +
           " bytes is shorter than the 48-byte header";
  const std::uint8_t* header = file.data();
  if (std::memcmp(header, EvalStore::kIndexMagic, 8) != 0)
    return "has magic bytes that are not \"FTMCSIDX\"";
  if (const std::uint32_t version = load_u32(header + 8);
      version != EvalStore::kVersion)
    return "has unsupported version " + std::to_string(version);
  if (const std::uint32_t reserved = load_u32(header + 12); reserved != 0)
    return "has reserved header field " + std::to_string(reserved) +
           ", expected 0";
  const std::uint64_t slot_count = load_u64(header + 16);
  if (!std::has_single_bit(slot_count))
    return "has slot count " + std::to_string(slot_count) +
           ", not a power of two";
  const std::uint64_t slot_bytes = file.size() - EvalStore::kIndexHeaderSize;
  if (slot_count > slot_bytes / 16 || slot_bytes != slot_count * 16)
    return "has " + std::to_string(file.size()) +
           " bytes, which does not match " + std::to_string(slot_count) +
           " slots";
  if (const std::uint64_t records = load_u64(header + 24);
      records > slot_count)
    return "promises " + std::to_string(records) + " records for " +
           std::to_string(slot_count) + " slots";
  if (const std::uint64_t covered = load_u64(header + 32);
      covered < EvalStore::kLogHeaderSize || covered > log_size)
    return "covers " + std::to_string(covered) + " log bytes but the log has " +
           std::to_string(log_size);
  if (util::fnv1a_bytes(file.subspan(EvalStore::kIndexHeaderSize)) !=
      load_u64(header + 40))
    return "fails its slots digest";
  return {};
}

/// Where a walk over a run of log records stopped: after `consumed` bytes
/// of complete records whose digests match, at `defect` (nullptr when the
/// run ended exactly at a record boundary).
struct WalkEnd {
  std::size_t consumed = 0;
  const char* defect = nullptr;
};

/// The one log-record walker (open's tail scan, flush's sibling absorption,
/// verify_store): calls visit(key, offset within `bytes`) for each complete,
/// digest-verified record from the start of `bytes`, and stops at the first
/// torn or damaged one.
template <typename Visit>
WalkEnd walk_records(std::span<const std::uint8_t> bytes, Visit&& visit) {
  constexpr std::size_t kHeader = EvalStore::kRecordHeaderSize;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t left = bytes.size() - off;
    if (left < kHeader) return {off, "torn record header"};
    const std::uint8_t* record = bytes.data() + off;
    const std::uint64_t payload =
        std::uint64_t{load_u32(record + 8)} + load_u32(record + 12);
    if (payload > left - kHeader) return {off, "torn record payload"};
    if (util::fnv1a_bytes({record + kHeader,
                           static_cast<std::size_t>(payload)}) !=
        load_u64(record + 16))
      return {off, "record that fails its payload digest"};
    visit(load_u64(record), off);
    off += kHeader + static_cast<std::size_t>(payload);
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
    const std::string unindexed = load_index();
    const bool index_ok = unindexed.empty();
    const std::uint64_t scan_from =
        index_ok ? std::max<std::uint64_t>(stats_.log_bytes, kLogHeaderSize)
                 : kLogHeaderSize;
    if (log_file_size_ > 0) scan_log_tail(scan_from);
    map_log(log_valid_end_);
    // Count overlay keys the mapped index does not already know about.
    std::uint64_t fresh = 0;
    for (const auto& [key, offset] : overlay_) {
      std::uint64_t ignored;
      if (!index_lookup(key, &ignored)) ++fresh;
    }
    stats_.records = idx_record_count_ + fresh;
    stats_.log_bytes = log_valid_end_;
    if (!index_ok && !overlay_.empty()) {
      // The log holds records the index does not cover at all: the index
      // file was missing, stale, or damaged.  Rebuild it from the log —
      // loudly, so silent index loss cannot masquerade as a cold store.
      ++stats_.index_rebuilds;
      counters().rebuilds.add(1);
      util::log_warn("evaluation store '", dir_, "': rebuilding index from ",
                     stats_.records, " logged records (index ", unindexed,
                     ")");
      if (!options_.read_only) persist_index_locked();
    }
    update_mapped_gauge_locked();
  } catch (...) {
    unmap_all();
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
  unmap_all();
  if (log_fd_ >= 0) ::close(log_fd_);
}

void EvalStore::open_log() {
  const std::string path = log_path();
  const int flags =
      options_.read_only ? O_RDONLY : (O_RDWR | O_CREAT);
  log_fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (log_fd_ < 0) fail("cannot open evaluation store log", path);
  log_file_size_ = file_size_of(log_fd_, path);
  if (log_file_size_ == 0) {
    if (options_.read_only) return;  // empty store: no header yet
    util::ByteWriter header;
    for (std::size_t i = 0; i < 8; ++i)
      header.u8(static_cast<std::uint8_t>(kLogMagic[i]));
    header.u32(kVersion);
    header.u32(0);  // reserved
    const std::vector<std::uint8_t> bytes = header.take();
    write_all(log_fd_, bytes.data(), bytes.size(), path);
    log_file_size_ = kLogHeaderSize;
  }
  std::uint8_t header[kLogHeaderSize] = {};
  if (log_file_size_ >= kLogHeaderSize)
    pread_all(log_fd_, header, sizeof header, 0, path);
  check_log_header(header, log_file_size_, path);
}

std::string EvalStore::load_index() {
  const int fd = ::open(index_path().c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::string("cannot be opened: ") + std::strerror(errno);
  struct stat st {};
  const std::size_t size =
      ::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0;
  // An empty file maps nothing; index_defect reports it as truncated.
  void* map = size > 0 ? ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0)
                       : nullptr;
  const int map_errno = errno;
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED)
    return std::string("cannot be mapped: ") + std::strerror(map_errno);
  const auto* bytes = static_cast<const std::uint8_t*>(map);
  if (std::string defect = index_defect({bytes, size}, log_file_size_);
      !defect.empty()) {
    if (map != nullptr) ::munmap(map, size);
    return defect;
  }
  idx_map_ = bytes;
  idx_map_size_ = size;
  idx_slot_count_ = load_u64(bytes + 16);
  idx_record_count_ = load_u64(bytes + 24);
  stats_.log_bytes = load_u64(bytes + 32);  // where the tail scan starts
  return {};
}

void EvalStore::scan_log_tail(std::uint64_t from) {
  const std::string path = log_path();
  log_valid_end_ = std::min(from, log_file_size_);
  if (from >= log_file_size_) return;
  const std::size_t len = static_cast<std::size_t>(log_file_size_ - from);
  std::vector<std::uint8_t> tail(len);
  pread_all(log_fd_, tail.data(), len, from, path);
  const WalkEnd end =
      walk_records(tail, [&](std::uint64_t key, std::size_t off) {
        overlay_[key] = from + off;
      });
  log_valid_end_ = from + end.consumed;
  overlay_end_ = log_valid_end_;
  if (end.defect == nullptr) return;
  const std::uint64_t torn = log_file_size_ - log_valid_end_;
  util::log_warn("evaluation store '", dir_, "': discarding torn ", torn,
                 "-byte log tail at offset ", log_valid_end_, " (",
                 end.defect, ", crash mid-append); ", overlay_.size(),
                 " fully-written tail records recovered");
  stats_.torn_bytes_discarded += torn;
  counters().torn_bytes.add(torn);
  if (!options_.read_only &&
      ::ftruncate(log_fd_, static_cast<off_t>(log_valid_end_)) != 0)
    fail("cannot truncate torn evaluation store log", path);
}

void EvalStore::map_log(std::uint64_t length) {
  if (length == 0) return;
  void* map = ::mmap(nullptr, static_cast<std::size_t>(length), PROT_READ,
                     MAP_SHARED, log_fd_, 0);
  if (map == MAP_FAILED) fail("cannot mmap evaluation store log", log_path());
  log_map_ = static_cast<const std::uint8_t*>(map);
  log_map_size_ = static_cast<std::size_t>(length);
}

void EvalStore::map_index(std::uint64_t file_size) {
  const int fd = ::open(index_path().c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot reopen evaluation store index", index_path());
  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_size), PROT_READ,
                     MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED)
    fail("cannot mmap evaluation store index", index_path());
  idx_map_ = static_cast<const std::uint8_t*>(map);
  idx_map_size_ = static_cast<std::size_t>(file_size);
}

void EvalStore::unmap_all() {
  if (log_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(log_map_), log_map_size_);
  log_map_ = nullptr;
  log_map_size_ = 0;
  if (idx_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(idx_map_), idx_map_size_);
  idx_map_ = nullptr;
  idx_map_size_ = 0;
  idx_slot_count_ = 0;
  idx_record_count_ = 0;
}

bool EvalStore::index_lookup(std::uint64_t key, std::uint64_t* offset) const {
  if (idx_slot_count_ == 0) return false;
  const std::uint64_t mask = idx_slot_count_ - 1;
  const std::uint8_t* slots = idx_map_ + kIndexHeaderSize;
  std::uint64_t i = key & mask;
  for (std::uint64_t probes = 0; probes < idx_slot_count_; ++probes) {
    const std::uint8_t* slot = slots + i * 16;
    const std::uint64_t slot_offset = load_u64(slot + 8);
    if (slot_offset == 0) return false;  // empty slot ends the probe chain
    if (load_u64(slot) == key) {
      *offset = slot_offset;
      return true;
    }
    i = (i + 1) & mask;
  }
  return false;
}

std::optional<Evaluation> EvalStore::read_record_locked(
    std::uint64_t offset, std::uint64_t key, const Candidate& candidate,
    bool* candidate_matches) const {
  *candidate_matches = false;
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
  if (load_u64(header) != key) throw damaged("does not carry the indexed key");
  const std::uint64_t payload =
      std::uint64_t{load_u32(header + 8)} + load_u32(header + 12);
  const std::uint64_t body_at = offset + kRecordHeaderSize;
  std::vector<std::uint8_t> copy;
  const std::uint8_t* body;
  if (body_at + payload <= log_map_size_) {
    body = log_map_ + body_at;
  } else {
    // Past the mapped prefix (appended since the last remap): the declared
    // length is untrusted until it fits inside the log.
    const std::uint64_t log_end = file_size_of(log_fd_, log_path());
    const std::uint64_t held = log_end > body_at ? log_end - body_at : 0;
    if (payload > held)
      throw damaged("declares a " + std::to_string(payload) +
                    "-byte payload but the log holds " +
                    std::to_string(held) + " bytes past its header");
    copy.resize(static_cast<std::size_t>(payload));
    pread_all(log_fd_, copy.data(), copy.size(), body_at, log_path());
    body = copy.data();
  }
  const std::span<const std::uint8_t> bytes(
      body, static_cast<std::size_t>(payload));
  if (util::fnv1a_bytes(bytes) != load_u64(header + 16))
    throw damaged("fails its payload digest");
  try {
    util::ByteReader in(bytes, "store record");
    const Candidate stored = read_candidate(in);
    if (!(stored == candidate)) return std::nullopt;  // collision -> miss
    Evaluation evaluation = read_evaluation(in);
    *candidate_matches = true;
    return evaluation;
  } catch (const util::ByteStreamError& error) {
    throw damaged(std::string("is corrupted: ") + error.what());
  }
}

std::optional<Evaluation> EvalStore::find(std::uint64_t key,
                                          const Candidate& candidate) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t offset = 0;
  bool found = false;
  if (const auto it = overlay_.find(key); it != overlay_.end()) {
    offset = it->second;
    found = true;
  } else {
    found = index_lookup(key, &offset);
  }
  if (found) {
    bool matches = false;
    std::optional<Evaluation> evaluation =
        read_record_locked(offset, key, candidate, &matches);
    if (matches) {
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
  record_writer.u64(key);
  record_writer.u32(static_cast<std::uint32_t>(cand_bytes));
  record_writer.u32(static_cast<std::uint32_t>(eval_bytes));
  record_writer.u64(util::fnv1a_bytes(payload));
  std::vector<std::uint8_t> record = record_writer.take();
  record.insert(record.end(), payload.begin(), payload.end());

  const std::string path = log_path();
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check residency under the lock: a concurrent evaluator may have
  // appended this candidate between the caller's find() and this put(), and
  // duplicate log records are pure bloat.
  std::uint64_t existing = 0;
  bool resident = false;
  if (const auto it = overlay_.find(key); it != overlay_.end()) {
    existing = it->second;
    resident = true;
  } else {
    resident = index_lookup(key, &existing);
  }
  if (resident) {
    bool matches = false;
    (void)read_record_locked(existing, key, candidate, &matches);
    if (matches) return;
  }

  // flock serializes appends across processes; within the process the mutex
  // already does.  One write(2) per record means a crash can only tear the
  // log's tail, which the per-record digest detects at the next open.
  if (::flock(log_fd_, LOCK_EX) != 0)
    fail("cannot lock evaluation store log", path);
  const off_t offset = ::lseek(log_fd_, 0, SEEK_END);
  if (offset < 0) {
    ::flock(log_fd_, LOCK_UN);
    fail("cannot seek evaluation store log", path);
  }
  try {
    write_all(log_fd_, record.data(), record.size(), path);
  } catch (...) {
    ::flock(log_fd_, LOCK_UN);
    throw;
  }
  ::flock(log_fd_, LOCK_UN);

  if (!resident) ++stats_.records;
  overlay_[key] = static_cast<std::uint64_t>(offset);
  overlay_end_ = std::max<std::uint64_t>(
      overlay_end_, static_cast<std::uint64_t>(offset) + record.size());
  ++stats_.appends;
  counters().appends.add(1);
}

void EvalStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.read_only || log_fd_ < 0) return;
  if (::fsync(log_fd_) != 0)
    fail("cannot fsync evaluation store log", log_path());
  persist_index_locked();
  update_mapped_gauge_locked();
}

void EvalStore::absorb_sibling_records_locked() {
  // Sibling processes sharing this log append their records under the same
  // flock ours use, so everything past this process's validated prefix is a
  // run of complete records from an arbitrary interleaving of writers.  The
  // index snapshot below claims coverage of every log byte up to `covered`;
  // absorbing the interleaved records first keeps that claim honest —
  // otherwise a sibling's records inside the covered range would be invisible
  // to every future open (the tail scan starts after `covered`).
  if (::flock(log_fd_, LOCK_SH) != 0)
    fail("cannot lock evaluation store log", log_path());
  std::uint64_t log_end = 0;
  try {
    log_end = file_size_of(log_fd_, log_path());
  } catch (...) {
    ::flock(log_fd_, LOCK_UN);
    throw;
  }
  ::flock(log_fd_, LOCK_UN);
  const std::uint64_t from = log_valid_end_;
  if (log_end <= from) return;
  // Bytes below log_end are immutable (the log is append-only), so the scan
  // itself needs no lock.
  const std::size_t len = static_cast<std::size_t>(log_end - from);
  std::vector<std::uint8_t> tail(len);
  pread_all(log_fd_, tail.data(), len, from, log_path());
  // A defect ends the walk: a sibling crashed mid-append, and the next
  // open() recovers/truncates it.
  const WalkEnd end =
      walk_records(tail, [&](std::uint64_t key, std::size_t off) {
        overlay_.emplace(key, from + off);  // our own newer re-put offsets win
      });
  overlay_end_ = std::max(overlay_end_, from + end.consumed);
}

void EvalStore::persist_index_locked() {
  absorb_sibling_records_locked();
  // Merge the mapped index with the overlay (overlay wins: it holds the
  // newest offset for re-put keys).
  std::unordered_map<std::uint64_t, std::uint64_t> entries;
  entries.reserve(idx_record_count_ + overlay_.size());
  if (idx_slot_count_ > 0) {
    const std::uint8_t* slots = idx_map_ + kIndexHeaderSize;
    for (std::uint64_t i = 0; i < idx_slot_count_; ++i) {
      const std::uint64_t offset = load_u64(slots + i * 16 + 8);
      if (offset != 0) entries[load_u64(slots + i * 16)] = offset;
    }
  }
  for (const auto& [key, offset] : overlay_) entries[key] = offset;

  const std::uint64_t covered = std::max(log_valid_end_, overlay_end_);
  const std::uint64_t slot_count = std::bit_ceil(
      std::max<std::uint64_t>(16, entries.size() * 2));
  std::vector<std::uint8_t> slots(
      static_cast<std::size_t>(slot_count) * 16, 0);
  const std::uint64_t mask = slot_count - 1;
  for (const auto& [key, offset] : entries) {
    std::uint64_t i = key & mask;
    while (load_u64(slots.data() + i * 16 + 8) != 0) i = (i + 1) & mask;
    store_u64(slots.data() + i * 16, key);
    store_u64(slots.data() + i * 16 + 8, offset);
  }

  util::ByteWriter file;
  for (std::size_t i = 0; i < 8; ++i)
    file.u8(static_cast<std::uint8_t>(kIndexMagic[i]));
  file.u32(kVersion);
  file.u32(0);  // reserved
  file.u64(slot_count);
  file.u64(entries.size());
  file.u64(covered);
  file.u64(util::fnv1a_bytes(slots));
  std::vector<std::uint8_t> bytes = file.take();
  bytes.insert(bytes.end(), slots.begin(), slots.end());
  util::write_file_atomic(index_path(), bytes);

  if (idx_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(idx_map_), idx_map_size_);
  idx_map_ = nullptr;
  idx_map_size_ = 0;
  map_index(bytes.size());
  idx_slot_count_ = slot_count;
  idx_record_count_ = entries.size();

  // Remap the log so everything the new index covers is mmap-served.
  if (covered > log_map_size_) {
    if (log_map_ != nullptr)
      ::munmap(const_cast<std::uint8_t*>(log_map_), log_map_size_);
    log_map_ = nullptr;
    log_map_size_ = 0;
    map_log(covered);
    log_valid_end_ = covered;
  }
  overlay_.clear();
  stats_.records = entries.size();
  stats_.log_bytes = covered;
}

EvalStoreStats EvalStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  update_mapped_gauge_locked();
  return stats_;
}

void EvalStore::update_mapped_gauge_locked() const {
  stats_.bytes_mapped = log_map_size_ + idx_map_size_;
  counters().bytes_mapped.set(stats_.bytes_mapped);
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
  const auto read = [](const std::string& path) {
    try {
      return util::read_file(path);
    } catch (const std::exception& error) {
      throw StoreError(error.what());
    }
  };
  const std::string log_path = dir + "/evals.log";
  const std::vector<std::uint8_t> log = read(log_path);
  check_log_header(log.data(), log.size(), log_path);
  std::unordered_map<std::uint64_t, std::uint64_t> records;  // offset -> key
  const WalkEnd end = walk_records(
      std::span(log).subspan(EvalStore::kLogHeaderSize),
      [&](std::uint64_t key, std::size_t off) {
        records.emplace(EvalStore::kLogHeaderSize + off, key);
      });
  if (end.defect != nullptr)
    throw StoreError("evaluation store log '" + log_path + "' has a " +
                     end.defect + " at offset " +
                     std::to_string(EvalStore::kLogHeaderSize + end.consumed));

  const std::string index_path = dir + "/evals.idx";
  if (!util::file_exists(index_path)) return records.size();
  const std::vector<std::uint8_t> index = read(index_path);
  const auto damaged = [&](const std::string& what) {
    return StoreError("evaluation store index '" + index_path + "' " + what);
  };
  if (const std::string defect = index_defect(index, log.size());
      !defect.empty())
    throw damaged(defect);
  const std::uint64_t covered = load_u64(index.data() + 32);
  if (covered != log.size() && !records.contains(covered))
    throw damaged("covers " + std::to_string(covered) +
                  " log bytes, which is not a record boundary");
  const std::uint64_t slot_count = load_u64(index.data() + 16);
  std::uint64_t occupied = 0;
  for (std::uint64_t i = 0; i < slot_count; ++i) {
    const std::uint8_t* slot =
        index.data() + EvalStore::kIndexHeaderSize + i * 16;
    const std::uint64_t offset = load_u64(slot + 8);
    if (offset == 0) continue;
    ++occupied;
    const auto record = records.find(offset);
    if (record == records.end() || offset >= covered)
      throw damaged("slot " + std::to_string(i) + " points at offset " +
                    std::to_string(offset) +
                    ", not a record boundary inside the covered log");
    if (record->second != load_u64(slot))
      throw damaged("slot " + std::to_string(i) + " holds a key that the " +
                    "record at offset " + std::to_string(offset) +
                    " does not carry");
  }
  if (const std::uint64_t promised = load_u64(index.data() + 24);
      occupied != promised)
    throw damaged("promises " + std::to_string(promised) +
                  " records but its slots hold " + std::to_string(occupied));
  return records.size();
}

}  // namespace ftmc::core
