// Crash-recovery scan for the sort service's durability directory.
//
// recover_dir() is a pure read pass: it loads the snapshot (if any),
// replays the journal suffix into the caller's Planner and Metrics, and
// returns what the service must do next — which jobs to re-admit, which
// to quarantine, and where the LSN / seq counters resume. It never
// writes; the SortService constructor owns the side effects (journaling
// quarantine records, restoring the queue, appending the quarantine
// file), so a crash *during recovery itself* just repeats the same scan.
//
// Replay rules:
//  - Snapshot state is authoritative up to snapshot.lsn; journal records
//    below that LSN are skipped.
//  - A terminal record replays the job's completion: metrics counters,
//    per-site fault counts from its embedded attempt history, and the
//    planner EWMA observation — in LSN order, which equals the original
//    observation order. A job with a terminal record is never re-run.
//  - A job with journal activity but no terminal was in flight when the
//    process died. If it had begun processing (planned / attempt records
//    after its last admission), the crash is charged to it: its crash
//    count increments when it died at the same site as last time (resets
//    to 1 at a new site), and hitting the threshold quarantines it.
//    Jobs still sitting in the queue are bystanders — re-admitted with no
//    crash charged.
//  - Damage is tolerated, not fatal: a torn record at a segment tail is
//    the expected crash scar (its effects were never acknowledged); a
//    CRC-corrupt record stops the scan of that segment and is surfaced
//    through Metrics as kCorruptJournal. A corrupt snapshot falls back to
//    replaying the full journal from LSN 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/job.hpp"
#include "svc/metrics.hpp"
#include "svc/planner.hpp"

namespace dsm::svc {

/// File names inside a durability directory.
std::string snapshot_path(const std::string& dir);
std::string quarantine_path(const std::string& dir);

struct RecoveryReport {
  bool performed = false;        // found a snapshot or journal records
  bool snapshot_loaded = false;
  bool snapshot_corrupt = false;  // present but damaged; full replay used
  std::uint64_t journal_records = 0;  // valid records replayed
  std::uint64_t torn_tails = 0;
  std::uint64_t corrupt_records = 0;
  std::uint64_t replayed_terminal = 0;  // finished jobs replayed, not re-run
  std::uint64_t requeued = 0;
  std::uint64_t quarantined = 0;  // newly quarantined by this recovery
  double recovery_host_ms = 0;    // stamped by the service constructor

  std::string to_json() const;
};

/// A job refused re-admission because it kept killing the process.
struct QuarantineEntry {
  JobSpec job;
  int crash_count = 0;
  std::string crash_site;
  /// Human-readable journal history of the job ("lsn=12 attempt-start 1",
  /// "lsn=13 mark keygen", ...), preserved in the quarantine file.
  std::vector<std::string> history;
};

struct RecoveryOutcome {
  RecoveryReport report;
  /// Jobs to re-admit, sorted by svc_seq; crash bookkeeping and any
  /// journaled plan already threaded into each spec.
  std::vector<JobSpec> requeue;
  /// Jobs newly crossing the quarantine threshold this recovery. The
  /// caller journals + records them.
  std::vector<QuarantineEntry> quarantine;
  /// Every job id ever admitted (duplicate-submit filter).
  std::vector<std::uint64_t> known_ids;
  std::uint64_t next_lsn = 0;
  std::uint64_t next_seq = 0;
};

/// Same-site crashes in a row that quarantine a job.
constexpr int kQuarantineThreshold = 2;

/// Scan `dir` and replay into `planner` / `metrics` (mutated only when
/// there is state to recover).
RecoveryOutcome recover_dir(const std::string& dir, Planner& planner,
                            Metrics& metrics);

}  // namespace dsm::svc
