// Crash-safe file persistence for checkpoints and other replace-the-whole-
// file artifacts.
//
// write_file_atomic follows the classic durable-replace protocol: the bytes
// go to a temporary file in the destination directory, are flushed and
// fsync'd there, and only then rename(2)d over the destination (atomic on
// POSIX), followed by an fsync of the directory so the rename itself is
// durable.  A reader therefore observes either the complete old file or the
// complete new file — never a torn mix — and a crash at any point leaves a
// loadable artifact behind.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ftmc::util {

/// True when `path` names an existing filesystem entry.
bool file_exists(const std::string& path);

/// Whole file as bytes.  Throws std::runtime_error naming the path on any
/// I/O failure.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Durably replaces `path` with `bytes` (temp file + fsync + atomic rename
/// + directory fsync).  Throws std::runtime_error naming the path on any
/// I/O failure; the destination is never left partially written.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Keep-last-K rotation for write_file_atomic targets: shifts `path` into
/// `path.1`, `path.1` into `path.2`, ... discarding `path.(keep-1)`.  With
/// keep <= 1 (or when `path` does not exist) this is a no-op — the next
/// atomic write simply replaces the file.  Renames within one directory, so
/// every rotated slot is always a complete snapshot; `path.1` is a hard
/// link to `path`, so `path` itself stays in place until the next atomic
/// write replaces it.
void rotate_files(const std::string& path, std::size_t keep);

}  // namespace ftmc::util
