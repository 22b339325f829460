#include "src/durability/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/durability/file_util.h"
#include "src/util/fail_point.h"

namespace fivm::durability {
namespace {

using fileio::ThrowErrno;

void WriteAll(int fd, const uint8_t* p, size_t n, const std::string& what) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("ckpt: write " + what);
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "ckpt-%020llu.ckpt",
                static_cast<unsigned long long>(lsn));
  return dir + "/" + name;
}

std::vector<CheckpointMeta> ListCheckpoints(const std::string& dir) {
  // Zero-padded LSNs make lexical order LSN order.
  std::vector<CheckpointMeta> out;
  for (std::string& path : fileio::ListNamed(dir, "ckpt-", ".ckpt")) {
    CheckpointMeta m;
    // The LSN starts after "<dir>/ckpt-".
    m.lsn = std::strtoull(path.c_str() + dir.size() + 6, nullptr, 10);
    m.path = std::move(path);
    out.push_back(std::move(m));
  }
  return out;
}

void InstallCheckpointBytes(const std::string& dir, uint64_t lsn,
                            const std::vector<uint8_t>& bytes) {
  fileio::MkDir(dir, "ckpt");
  const std::string final_path = CheckpointPath(dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) ThrowErrno("ckpt: create " + tmp_path);
  try {
    // The image is written in two halves with the "ckpt.write" site between
    // them: a kill there leaves a partial .tmp (never visible to the
    // loader), an injected throw unwinds to the unlink below.
    const size_t half = bytes.size() / 2;
    WriteAll(fd, bytes.data(), half, tmp_path);
    FIVM_FAIL_POINT("ckpt.write");
    WriteAll(fd, bytes.data() + half, bytes.size() - half, tmp_path);
    if (::fsync(fd) != 0) ThrowErrno("ckpt: fsync " + tmp_path);
    ::close(fd);
    fd = -1;
    // A kill here leaves a complete but uninstalled .tmp; the loader never
    // reads .tmp files and the next GC pass collects it.
    FIVM_FAIL_POINT("ckpt.rename");
    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
      ThrowErrno("ckpt: rename " + tmp_path);
    }
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp_path.c_str());
    throw;
  }
  // Throws if the rename may not be durable, so the caller's WAL truncation
  // and checkpoint GC never run past it.
  fileio::SyncDir(dir, "ckpt");
}

bool ReadCheckpointBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::vector<uint8_t> buf;
  if (!fileio::ReadWholeFile(path, &buf)) return false;
  if (buf.size() < 28 + 4) return false;
  uint32_t magic, version, stored_crc;
  std::memcpy(&magic, buf.data(), 4);
  std::memcpy(&version, buf.data() + 4, 4);
  std::memcpy(&stored_crc, buf.data() + buf.size() - 4, 4);
  if (magic != kCkptMagic || version != kCkptVersion) return false;
  if (util::Crc32c(buf.data(), buf.size() - 4) != stored_crc) return false;
  *out = std::move(buf);
  return true;
}

void RemoveOldCheckpoints(const std::string& dir, size_t keep) {
  std::vector<CheckpointMeta> all = ListCheckpoints(dir);
  for (size_t i = 0; i + keep < all.size(); ++i) {
    ::unlink(all[i].path.c_str());
  }
  // Stray temp files from crashed installs.
  for (const std::string& t : fileio::ListNamed(dir, "ckpt-", ".tmp")) {
    ::unlink(t.c_str());
  }
}

}  // namespace fivm::durability
