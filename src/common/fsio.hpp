// Durable file-system primitives for the service's durability layer and
// the bench artifact writers.
//
// try_write_file_atomic implements the classic crash-safe publish: write to a
// sibling temporary, fsync the file, rename over the destination, fsync
// the directory. A reader (or a recovery scan after a crash) therefore
// sees either the complete old content or the complete new content —
// never a truncated JSON artifact or a half-written snapshot. Plain
// std::ofstream writes (perf::write_file) give no such guarantee: the
// rename is what makes the publish atomic and the fsyncs are what make it
// survive power loss, not just process death.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace dsm {

/// Deterministic disk-fault injection for the durability layer
/// (DESIGN.md §12). When armed (seed != 0 and rate > 0), every write or
/// fsync issued through faulty_write_all / faulty_fsync consults a pure
/// hash of (seed, global op index): below `rate` the op fails with a
/// seeded flavour — ENOSPC, EIO, or a short write that really tears the
/// record on disk before erroring (writes the first half of the buffer,
/// the exact shape a full disk produces). fsync faults always surface as
/// EIO. Process-global, intended for tests and the chaos bench; disarmed
/// it costs one relaxed atomic increment per op.
struct FsFaultConfig {
  std::uint64_t seed = 0;  // 0 disarms the shim
  double rate = 0;         // per-op fault probability in [0, 1]
};

/// Install `cfg` and reset the op and fired counters, so a run's fault
/// schedule is a pure function of the config (same seed => same ops fail
/// in the same way, independent of wall clock or pid).
void set_fs_fault_config(const FsFaultConfig& cfg);
FsFaultConfig fs_fault_config();
/// Injected faults fired since the last set_fs_fault_config.
std::uint64_t fs_faults_fired();

/// write(2) the whole buffer with EINTR retry, consulting the fault shim
/// first. kIoError on failure (injected or real); errno-style detail in
/// the message, `what` names the destination.
Status faulty_write_all(int fd, const char* data, std::size_t size,
                        const std::string& what);
/// fsync_retry through the fault shim. kIoError on failure.
Status faulty_fsync(int fd, const std::string& what);

/// Atomically replace `path` with `content` (tmp + fsync + rename +
/// directory fsync). Non-throwing; returns kIoError on any failure, in
/// which case `path` is untouched (the temporary is unlinked best-effort).
Status try_write_file_atomic(const std::string& path,
                             const std::string& content);

/// Read an entire file. kIoError when it cannot be opened or read.
Result<std::string> try_read_file(const std::string& path);

/// fsync the directory containing `path` (publishes a rename or create
/// durably). Best-effort: some filesystems reject directory fsync.
void fsync_parent_dir(const std::string& path);

/// Process-wide SIGPIPE -> SIG_IGN (idempotent, thread-safe). A peer that
/// dies mid-conversation must surface as EPIPE from write(), a typed
/// kPeerDead status the master can handle — not a process-killing signal.
/// Called by the cluster transport on every channel construction; safe to
/// call from anywhere else that writes to pipes or sockets.
void ignore_sigpipe();

/// ::open with EINTR retry. Same contract as open(2) otherwise.
int open_retry(const char* path, int flags, unsigned mode = 0644);

/// ::fsync with EINTR retry. Same contract as fsync(2) otherwise.
int fsync_retry(int fd);

}  // namespace dsm
