// Append-only write-ahead journal for the sort service.
//
// Every service state transition that durability cares about becomes one
// journal record: a job was admitted (journaled before the client learns
// the job was accepted), a plan was chosen, an execution attempt started,
// execution passed a named progress mark, an attempt failed, a job reached
// its terminal state, or a job was quarantined. Records are framed as
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// little-endian, with a text payload ("<lsn> <type> <fields...>"; doubles
// in hexfloat so they round-trip bit-exactly, strings netstring-framed).
// LSNs are assigned under the writer lock, so LSN order equals file order.
//
// Segments are append-only files named journal-<first-lsn>.wal; the
// writer rotates to a fresh segment after each snapshot (and when a
// segment exceeds kSegmentMaxBytes), and recovery replays segments in
// first-lsn order. A crash can leave at most one torn record at the tail
// of the newest segment — the reader tolerates that (the record's effects
// were never acknowledged) but treats a CRC mismatch on a fully-present
// record as corruption: reading stops there and the damage is surfaced
// via Metrics (kCorruptJournal), because framing cannot be trusted past a
// damaged record.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "svc/job.hpp"

namespace dsm::svc {

enum class RecordType {
  kAdmit,          // job accepted into the queue (possibly a re-admission)
  kPlanned,        // planner chose a plan for the job
  kAttemptStart,   // execution attempt N began
  kMark,           // execution passed a named progress site
  kAttemptResult,  // attempt N failed (successes are implied by kTerminal)
  kTerminal,       // job finished: ok / failed / shed / deadline-miss
  kQuarantine,     // job refused re-admission after repeated crashes
  kDispatch,       // attempt N handed to a cluster worker (PR 7)
};
constexpr int kRecordTypeCount = 8;

/// The writer rotates to a fresh segment once the current one exceeds
/// this size.
constexpr std::uint64_t kSegmentMaxBytes = std::uint64_t{1} << 20;

const char* record_type_name(RecordType t);
/// kCorruptJournal on an unknown name.
Result<RecordType> record_type_from_name(const std::string& name);

/// One journal record. A flat struct: which fields are meaningful depends
/// on `type` (the encoder only serializes the fields its type owns).
struct JournalRecord {
  std::uint64_t lsn = 0;  // assigned by the writer; readers get it back
  RecordType type = RecordType::kAdmit;
  std::uint64_t seq = 0;  // admission seq of the job (every record type)

  // kAdmit: the full client-visible spec plus crash bookkeeping. A
  // readmit record (recovery re-admitting an in-flight job) additionally
  // carries the pre-crash plan when one was journaled.
  JobSpec job;
  bool readmit = false;

  // kPlanned (and kTerminal, where the plan is embedded so terminal
  // replay needs no cross-record merge).
  Plan plan;

  // kAttemptStart / kAttemptResult / kDispatch.
  int attempt = 0;
  AttemptRecord attempt_result;  // kAttemptResult

  // kMark / kQuarantine / kDispatch: progress site ("keygen",
  // "local-sort", ...; for kQuarantine the inferred crash site, e.g.
  // "execute:keygen"; for kDispatch the worker label, e.g. "worker-2").
  std::string site;

  // kTerminal: the deterministic slice of the JobResult (host latency is
  // deliberately not durable). `result.plan` is the authoritative copy.
  JobResult result;

  // kQuarantine.
  int crash_count = 0;
};

/// Payload text for one record (no framing; `lsn` must already be set).
std::string encode_record(const JournalRecord& r);
/// Inverse of encode_record; kCorruptJournal when the payload does not
/// parse. Never throws.
Result<JournalRecord> decode_record(const std::string& payload);

struct JournalConfig {
  std::string dir;
  /// fsync the segment after every append. Turning this off keeps the
  /// write ordering (enough for the in-process tests) but drops the
  /// crash-durability guarantee; the crash harness always leaves it on.
  bool fsync_data = true;
  /// Test/harness hook, invoked around every durability I/O step with a
  /// site name ("journal.<type>.before-fsync", "journal.<type>.after-
  /// fsync", "snapshot.before-rename", ...) and the seq involved. The
  /// crash harness _exit()s inside it to die at a precise point.
  std::function<void(const char* site, std::uint64_t seq)> crash_hook;
};

class JournalWriter {
 public:
  /// Opens a fresh segment journal-<next_lsn>.wal in cfg.dir (the
  /// directory is created if missing). Throws Error(kIoError) on I/O
  /// failure.
  JournalWriter(JournalConfig cfg, std::uint64_t next_lsn);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Assign the next LSN to `r`, frame it, append it to the current
  /// segment and (by default) fsync. Thread-safe; returns the LSN.
  ///
  /// Disk faults do not throw (DESIGN.md §12): a failed write or fsync
  /// closes the segment (a torn record may sit at its tail, and nothing
  /// must ever be appended after a torn record — the reader stops there),
  /// drops the record, and puts the writer in *degraded* mode. Every
  /// subsequent append first tries to heal onto a fresh segment named by
  /// its own LSN; until one succeeds, records keep being dropped and
  /// counted. LSNs are consumed even for dropped records — recovery
  /// computes next_lsn as max-seen + 1, so LSN gaps are harmless.
  std::uint64_t append(JournalRecord r);

  /// Close the current segment and open a fresh one starting at the
  /// current next-LSN. Called after each snapshot so older segments
  /// contain only records the snapshot already covers.
  void rotate();

  std::uint64_t next_lsn() const;

  /// Degraded-durability introspection (all monotone except degraded()).
  bool degraded() const;
  std::uint64_t records_dropped() const;
  std::uint64_t heals() const;

 private:
  bool try_open_segment_locked(std::uint64_t first_lsn);
  void fire_hook(const char* site, std::uint64_t seq);

  JournalConfig cfg_;
  mutable std::mutex mu_;
  std::uint64_t next_lsn_;
  std::uint64_t segment_bytes_ = 0;
  int fd_ = -1;
  bool degraded_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t heals_ = 0;
};

/// Journal segments in `dir`, sorted by first LSN (empty if none).
std::vector<std::string> list_segments(const std::string& dir);

/// Delete every segment whose first LSN is below `min_start_lsn` (all
/// records in such segments predate the snapshot taken at that LSN,
/// because the writer rotates immediately after snapshotting).
void prune_segments(const std::string& dir, std::uint64_t min_start_lsn);

struct SegmentScan {
  std::vector<JournalRecord> records;  // valid prefix, in LSN order
  bool torn_tail = false;  // segment ended mid-record (benign crash scar)
  std::uint64_t corrupt = 0;  // 1 when reading stopped at a damaged record
};

/// Read one segment's valid prefix. Never throws on damage — torn tails
/// and corrupt records are reported in the scan result instead.
SegmentScan read_segment(const std::string& path);

}  // namespace dsm::svc
