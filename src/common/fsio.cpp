#include "common/fsio.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

namespace dsm {
namespace {

std::mutex g_fault_mu;
FsFaultConfig g_fault_cfg;                      // guarded by g_fault_mu
std::atomic<std::uint64_t> g_fault_op{0};       // global op index
std::atomic<std::uint64_t> g_fault_fired{0};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum class FsFault { kNone, kEnospc, kEio, kShortWrite };

/// One fault decision: pure in (seed, op index). Each call consumes one
/// op index whether or not the shim is armed, so arming mid-run never
/// renumbers later ops.
FsFault next_fault(bool is_fsync) {
  const std::uint64_t idx = g_fault_op.fetch_add(1, std::memory_order_relaxed);
  FsFaultConfig cfg;
  {
    std::lock_guard<std::mutex> lock(g_fault_mu);
    cfg = g_fault_cfg;
  }
  if (cfg.seed == 0 || cfg.rate <= 0) return FsFault::kNone;
  const std::uint64_t h = mix64(cfg.seed ^ mix64(idx));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= cfg.rate) return FsFault::kNone;
  g_fault_fired.fetch_add(1, std::memory_order_relaxed);
  if (is_fsync) return FsFault::kEio;
  switch (mix64(h) % 3) {
    case 0: return FsFault::kEnospc;
    case 1: return FsFault::kEio;
    default: return FsFault::kShortWrite;
  }
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status errno_status(const std::string& what, const std::string& path) {
  return Status::io_error(what + " " + path + ": " + std::strerror(errno));
}

/// Plain write(2) loop with EINTR retry; no fault consultation.
Status write_all_raw(int fd, const char* data, std::size_t size,
                     const std::string& what) {
  const char* p = data;
  std::size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("write failed", what);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status();
}

}  // namespace

void set_fs_fault_config(const FsFaultConfig& cfg) {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  g_fault_cfg = cfg;
  g_fault_op.store(0, std::memory_order_relaxed);
  g_fault_fired.store(0, std::memory_order_relaxed);
}

FsFaultConfig fs_fault_config() {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  return g_fault_cfg;
}

std::uint64_t fs_faults_fired() {
  return g_fault_fired.load(std::memory_order_relaxed);
}

Status faulty_write_all(int fd, const char* data, std::size_t size,
                        const std::string& what) {
  switch (next_fault(/*is_fsync=*/false)) {
    case FsFault::kEnospc:
      errno = ENOSPC;
      return errno_status("injected write fault", what);
    case FsFault::kEio:
      errno = EIO;
      return errno_status("injected write fault", what);
    case FsFault::kShortWrite: {
      // Really land the first half on disk before failing — the reader
      // must face a genuinely torn record, not a clean boundary.
      write_all_raw(fd, data, size / 2, what);
      errno = ENOSPC;
      return Status::io_error("injected short write (" +
                              std::to_string(size / 2) + "/" +
                              std::to_string(size) + " bytes) " + what +
                              ": " + std::strerror(errno));
    }
    case FsFault::kNone: break;
  }
  return write_all_raw(fd, data, size, what);
}

Status faulty_fsync(int fd, const std::string& what) {
  if (next_fault(/*is_fsync=*/true) != FsFault::kNone) {
    errno = EIO;
    return errno_status("injected fsync fault", what);
  }
  if (fsync_retry(fd) != 0) return errno_status("fsync failed", what);
  return Status();
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
  });
}

int open_retry(const char* path, int flags, unsigned mode) {
  for (;;) {
    const int fd = ::open(path, flags, static_cast<mode_t>(mode));
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

int fsync_retry(int fd) {
  for (;;) {
    const int rc = ::fsync(fd);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

void fsync_parent_dir(const std::string& path) {
  const int dfd =
      open_retry(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  fsync_retry(dfd);  // best-effort: EINVAL on filesystems that reject it
  ::close(dfd);
}

Status try_write_file_atomic(const std::string& path,
                             const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return errno_status("cannot open for writing", tmp);

  const Status wrote =
      faulty_write_all(fd, content.data(), content.size(), tmp);
  if (!wrote.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return wrote;
  }
  const Status synced = faulty_fsync(fd, tmp);
  if (!synced.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return synced;
  }
  if (::close(fd) != 0) {
    const Status s = errno_status("close failed", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = errno_status("rename failed", tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return s;
  }
  fsync_parent_dir(path);
  return Status();
}

Result<std::string> try_read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::io_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::io_error("read failed " + path);
  return buf.str();
}

}  // namespace dsm
