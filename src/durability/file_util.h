// File and directory helpers shared by the WAL (wal.cc) and the checkpoint
// installer (checkpoint.cc). Not part of the durability API: only those two
// translation units include this header. `who` is the error-message prefix
// of the caller ("wal", "ckpt").

#ifndef FIVM_DURABILITY_FILE_UTIL_H_
#define FIVM_DURABILITY_FILE_UTIL_H_

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/fail_point.h"

namespace fivm::durability::fileio {

[[noreturn]] inline void ThrowErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

inline void MkDir(const std::string& dir, const std::string& who) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    ThrowErrno(who + ": mkdir " + dir);
  }
}

/// Makes `dir`'s entries (creates, renames, unlinks) durable, and throws when
/// it cannot, so no caller goes on to act on an entry that a crash may undo.
/// EINVAL is not a failure: it is what a filesystem that cannot fsync a
/// directory returns (PostgreSQL's fsync_fname makes the same exception).
/// The "durability.sync_dir" site fires before the open.
inline void SyncDir(const std::string& dir, const std::string& who) {
  FIVM_FAIL_POINT("durability.sync_dir");
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) ThrowErrno(who + ": open dir " + dir);
  if (::fsync(fd) != 0 && errno != EINVAL) {
    const int err = errno;
    ::close(fd);
    errno = err;
    ThrowErrno(who + ": fsync dir " + dir);
  }
  ::close(fd);
}

/// Replaces `*out` with the bytes of `path`; false if it cannot be opened or
/// read (`*out` then holds a prefix).
inline bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  uint8_t chunk[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->insert(out->end(), chunk, chunk + n);
  }
  ::close(fd);
  return true;
}

/// Paths of `dir`'s entries named <prefix>...<suffix> with at least one
/// character between, in lexical order; empty if `dir` cannot be opened.
inline std::vector<std::string> ListNamed(const std::string& dir,
                                          std::string_view prefix,
                                          std::string_view suffix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string_view name = e->d_name;
    if (name.size() > prefix.size() + suffix.size() &&
        name.substr(0, prefix.size()) == prefix &&
        name.substr(name.size() - suffix.size()) == suffix) {
      out.push_back(dir + "/" + std::string(name));
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fivm::durability::fileio

#endif  // FIVM_DURABILITY_FILE_UTIL_H_
