#include "ftmc/util/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace ftmc::util {
namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw std::runtime_error(std::string(what) + " '" + path +
                           "': " + std::strerror(errno));
}

/// Directory part of `path` ("." when it has none) — for the post-rename
/// directory fsync.
std::string directory_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir fds
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool file_exists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot read");
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail(path, "cannot read");
    }
    if (got == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  ::close(fd);
  return bytes;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string temp = path + ".tmp";
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(temp, "cannot write");
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t put =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (put < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(temp.c_str());
      fail(temp, "cannot write");
    }
    written += static_cast<std::size_t>(put);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(temp.c_str());
    fail(temp, "cannot fsync");
  }
  ::close(fd);
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    fail(path, "cannot rename into");
  }
  fsync_directory(directory_of(path));
}

void rotate_files(const std::string& path, std::size_t keep) {
  if (keep <= 1 || !file_exists(path)) return;
  // Oldest first: path.(keep-2) -> path.(keep-1), ..., path.1 -> path.2.
  for (std::size_t slot = keep - 1; slot >= 2; --slot) {
    const std::string from = path + "." + std::to_string(slot - 1);
    if (!file_exists(from)) continue;
    const std::string to = path + "." + std::to_string(slot);
    if (::rename(from.c_str(), to.c_str()) != 0)
      fail(to, "cannot rotate checkpoint into");
  }
  // path.1 becomes a second name of path, which keeps its own until the
  // next write_file_atomic renames over it: a crash in between still finds
  // a complete snapshot at path.  Renaming path away, as a filesystem
  // without hard links still does, leaves none there until that rename.
  const std::string newest = path + ".1";
  ::unlink(newest.c_str());
  if (::link(path.c_str(), newest.c_str()) != 0 &&
      ::rename(path.c_str(), newest.c_str()) != 0)
    fail(newest, "cannot rotate checkpoint into");
  fsync_directory(directory_of(path));
}

}  // namespace ftmc::util
