// Calibration/state checkpoints for the sort service.
//
// A snapshot is one CRC-framed blob holding everything recovery would
// otherwise have to reconstruct by replaying the journal from LSN 0:
// the planner's calibration cells (hexfloat, so the EWMA factors restore
// bit-exactly), the complete Metrics state, the set of job ids ever
// admitted (the idempotence filter), the jobs that were sitting in the
// queue at checkpoint time, and the journal LSN the snapshot covers.
// After loading a snapshot, recovery replays only the journal suffix —
// the segments the writer opened after the checkpoint.
//
// Snapshots are published atomically (tmp + fsync + rename + dir fsync),
// so a crash mid-checkpoint leaves the previous snapshot intact. A
// snapshot that fails its CRC is reported as kCorruptJournal and recovery
// falls back to replaying the full journal from scratch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "svc/job.hpp"
#include "svc/metrics.hpp"
#include "svc/planner.hpp"

namespace dsm::svc {

struct SnapshotData {
  /// Journal LSN this snapshot covers: every record with lsn < this is
  /// already folded in; recovery replays records from this LSN on.
  std::uint64_t lsn = 0;
  /// Admission sequence counter at checkpoint time.
  std::uint64_t next_seq = 0;
  /// Every planner cell in export_cells order, tagged with its (algo,
  /// model). Serialized as the named "cells2" list, the only layout the
  /// decoder accepts.
  std::vector<Planner::CellState> planner_cells;
  /// Complete metrics registry state.
  Metrics::State metrics;
  /// Jobs admitted but still queued at checkpoint time (the checkpoint is
  /// taken between batches, so nothing is mid-execution). Their svc_seq
  /// and any recovered_plan ride along.
  std::vector<JobSpec> inflight;
  /// Every job id ever admitted (including terminal and quarantined
  /// jobs) — the duplicate-submit filter survives restarts.
  std::vector<std::uint64_t> known_ids;
};

/// Deterministic text payload (exposed for tests; the file adds framing).
std::string encode_snapshot(const SnapshotData& s);
/// kCorruptJournal when the payload does not parse. Never throws.
Result<SnapshotData> decode_snapshot(const std::string& payload);

/// Atomically publish `s` at `path`. `crash_hook`, when set, fires at
/// "snapshot.before-rename" and "snapshot.after-rename" (with s.lsn as
/// the seq argument) so the crash harness can kill the process around
/// the publish point. Returns kIoError on failure (previous snapshot
/// intact).
Status write_snapshot(
    const std::string& path, const SnapshotData& s,
    const std::function<void(const char*, std::uint64_t)>& crash_hook = {});

/// Load and verify a snapshot. kIoError when the file is absent or
/// unreadable (a fresh directory — not an error for recovery);
/// kCorruptJournal when present but damaged.
Result<SnapshotData> load_snapshot(const std::string& path);

}  // namespace dsm::svc
