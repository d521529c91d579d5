#include "svc/recovery.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "svc/journal.hpp"
#include "svc/snapshot.hpp"

namespace dsm::svc {
namespace {

/// Everything the journal knows about one admission seq, folded in LSN
/// order.
struct Track {
  JobSpec spec;
  bool have_spec = false;
  std::optional<Plan> plan;  // latest planned record (or readmitted plan)
  /// The job had begun processing since its last (re-)admission. Only the
  /// began job owning the journal's *latest* progress record is charged
  /// for the crash: durable mode is single-pipeline, so that is exactly
  /// the job being processed when the process died. Batchmates that
  /// finished earlier (executed, terminal not yet journaled) and queued
  /// jobs are innocent bystanders — they re-run without a crash charge.
  bool began = false;
  bool attempt_started = false;
  std::string last_mark;
  bool terminal = false;
  bool quarantined = false;
  std::vector<std::string> history;
};

std::string history_line(const JournalRecord& r) {
  std::ostringstream os;
  os << "lsn=" << r.lsn << ' ' << record_type_name(r.type);
  switch (r.type) {
    case RecordType::kAdmit:
      if (r.readmit) {
        os << " readmit crash_count=" << r.job.crash_count << " site="
           << r.job.crash_site;
      }
      break;
    case RecordType::kPlanned:
      os << ' ' << sort::algo_name(r.plan.algo) << '/'
         << sort::model_name(r.plan.model) << '/' << r.plan.radix_bits;
      break;
    case RecordType::kAttemptStart:
      os << ' ' << r.attempt;
      break;
    case RecordType::kMark:
      os << ' ' << r.site;
      break;
    case RecordType::kAttemptResult:
      os << ' ' << r.attempt << ": " << r.attempt_result.error;
      break;
    case RecordType::kTerminal:
      os << ' ' << job_status_name(r.result.status);
      break;
    case RecordType::kQuarantine:
      os << " crash_count=" << r.crash_count << " site=" << r.site;
      break;
    case RecordType::kDispatch:
      os << ' ' << r.attempt << " -> " << r.site;
      break;
  }
  return os.str();
}

/// The crash site charged to a job that was mid-flight when the process
/// died: the deepest progress its final incarnation journaled.
std::string crash_site_of(const Track& t) {
  if (t.attempt_started || !t.last_mark.empty()) {
    return "execute:" + (t.last_mark.empty() ? std::string("start")
                                             : t.last_mark);
  }
  return "planned";
}

}  // namespace

std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.bin";
}

std::string quarantine_path(const std::string& dir) {
  return dir + "/quarantine.jsonl";
}

std::string RecoveryReport::to_json() const {
  std::ostringstream os;
  os << "{\"performed\": " << (performed ? "true" : "false")
     << ", \"snapshot_loaded\": " << (snapshot_loaded ? "true" : "false")
     << ", \"snapshot_corrupt\": " << (snapshot_corrupt ? "true" : "false")
     << ", \"journal_records\": " << journal_records
     << ", \"torn_tails\": " << torn_tails
     << ", \"corrupt_records\": " << corrupt_records
     << ", \"replayed_terminal\": " << replayed_terminal
     << ", \"requeued\": " << requeued
     << ", \"quarantined\": " << quarantined << "}";
  return os.str();
}

RecoveryOutcome recover_dir(const std::string& dir, Planner& planner,
                            Metrics& metrics) {
  RecoveryOutcome out;

  SnapshotData snap;
  bool have_snap = false;
  {
    Result<SnapshotData> loaded = load_snapshot(snapshot_path(dir));
    if (loaded.ok()) {
      snap = std::move(loaded).value();
      have_snap = true;
      out.report.snapshot_loaded = true;
    } else if (loaded.status().code() == StatusCode::kCorruptJournal) {
      // Fall back to a full journal replay; how complete that is depends
      // on whether pre-snapshot segments were pruned (the crash harness
      // keeps them). Either way the damage is surfaced, not hidden.
      out.report.snapshot_corrupt = true;
    }
    // kIoError (no snapshot yet) is the normal fresh-directory case.
  }

  const std::vector<std::string> segments = list_segments(dir);
  std::vector<JournalRecord> records;
  std::uint64_t torn = 0;
  std::uint64_t corrupt = 0;
  for (const std::string& seg : segments) {
    SegmentScan scan = read_segment(seg);
    if (scan.torn_tail) ++torn;
    corrupt += scan.corrupt;
    for (JournalRecord& r : scan.records) {
      if (have_snap && r.lsn < snap.lsn) continue;  // folded in already
      records.push_back(std::move(r));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.lsn < b.lsn;
            });

  out.report.performed = have_snap || out.report.snapshot_corrupt ||
                         !segments.empty() || !records.empty();
  if (!out.report.performed) {
    out.next_lsn = 0;
    out.next_seq = 0;
    return out;  // fresh directory: touch nothing
  }

  // Seed state from the snapshot.
  std::set<std::uint64_t> known_ids;
  std::uint64_t next_lsn = 0;
  std::uint64_t next_seq = 0;
  std::map<std::uint64_t, Track> tracks;  // seq-ordered
  if (have_snap) {
    planner.import_cells(snap.planner_cells);
    metrics.import_state(snap.metrics);
    known_ids.insert(snap.known_ids.begin(), snap.known_ids.end());
    next_lsn = snap.lsn;
    next_seq = snap.next_seq;
    for (JobSpec& j : snap.inflight) {
      Track& t = tracks[j.svc_seq];
      t.spec = std::move(j);
      t.have_spec = true;
      t.plan = t.spec.recovered_plan;
      t.history.push_back("snapshot inflight");
    }
  }

  // Replay the journal suffix in LSN order.
  std::uint64_t last_exec_seq = 0;
  bool have_last_exec = false;
  for (const JournalRecord& r : records) {
    next_lsn = std::max(next_lsn, r.lsn + 1);
    next_seq = std::max(next_seq, r.seq + 1);
    ++out.report.journal_records;
    if (r.type == RecordType::kPlanned ||
        r.type == RecordType::kAttemptStart ||
        r.type == RecordType::kDispatch ||
        r.type == RecordType::kMark || r.type == RecordType::kAttemptResult) {
      last_exec_seq = r.seq;  // highest-LSN progress record wins
      have_last_exec = true;
    }
    Track& t = tracks[r.seq];
    t.history.push_back(history_line(r));
    switch (r.type) {
      case RecordType::kAdmit:
        if (r.readmit) {
          // A re-admission separates incarnations: progress journaled
          // before it belongs to a dead incarnation, and the record
          // carries the accumulated crash bookkeeping.
          t.spec = r.job;
          t.have_spec = true;
          t.plan = r.job.recovered_plan;
          t.began = false;
          t.attempt_started = false;
          t.last_mark.clear();
        } else {
          if (!t.have_spec) {
            t.spec = r.job;
            t.have_spec = true;
          }
          // The original admission is counted exactly once; the record
          // can land after the server's planned record for the same job
          // (client and server thread race), which must not reset the
          // progress tracking above.
          metrics.on_admission(Admission::kAccepted);
        }
        known_ids.insert(r.job.id);
        break;
      case RecordType::kPlanned:
        t.plan = r.plan;
        t.began = true;
        break;
      case RecordType::kAttemptStart:
        t.attempt_started = true;
        t.began = true;
        break;
      case RecordType::kMark:
        t.last_mark = r.site;
        t.began = true;
        break;
      case RecordType::kAttemptResult:
        t.began = true;
        break;
      case RecordType::kTerminal: {
        t.terminal = true;
        known_ids.insert(r.result.id);
        // Replay the completion exactly as the live path applied it:
        // per-site fault counts, the planner observation, the metrics
        // completion — in LSN order, which is the original batch order.
        for (const AttemptRecord& a : r.result.attempts) {
          if (a.fault_site >= 0 && a.fault_site < kFaultSiteCount) {
            metrics.on_fault(static_cast<FaultSite>(a.fault_site));
          }
        }
        if (r.result.final_fault_site >= 0 &&
            r.result.final_fault_site < kFaultSiteCount) {
          metrics.on_fault(
              static_cast<FaultSite>(r.result.final_fault_site));
        }
        if ((r.result.status == JobStatus::kOk ||
             r.result.status == JobStatus::kDeadlineMiss) &&
            r.result.measured_ns > 0) {
          planner.observe(r.result.plan, r.result.measured_ns);
        }
        metrics.on_complete(r.result);
        ++out.report.replayed_terminal;
        break;
      }
      case RecordType::kQuarantine:
        t.quarantined = true;
        known_ids.insert(r.job.id);
        break;
      case RecordType::kDispatch:
        // A dispatch that never acked is exactly the attempt-start case:
        // the attempt had begun somewhere when the master died, so the
        // job is re-driven (and charged if it owns the latest progress).
        t.attempt_started = true;
        t.began = true;
        break;
    }
  }
  if (torn > 0) {
    out.report.torn_tails = torn;
    for (std::uint64_t i = 0; i < torn; ++i) metrics.on_journal_torn_tail();
  }
  if (corrupt > 0) {
    out.report.corrupt_records = corrupt;
    metrics.on_journal_corrupt(corrupt);
  }

  // Decide each unfinished job's fate, in seq order.
  for (auto& [seq, t] : tracks) {
    if (t.terminal || t.quarantined || !t.have_spec) continue;
    JobSpec job = t.spec;
    if (t.began && have_last_exec && seq == last_exec_seq) {
      const std::string site = crash_site_of(t);
      const int count = site == job.crash_site ? job.crash_count + 1 : 1;
      job.crash_count = count;
      job.crash_site = site;
      if (count >= kQuarantineThreshold) {
        QuarantineEntry q;
        q.job = std::move(job);
        q.crash_count = count;
        q.crash_site = site;
        q.history = std::move(t.history);
        out.quarantine.push_back(std::move(q));
        ++out.report.quarantined;
        continue;
      }
    }
    if (t.plan) job.recovered_plan = t.plan;
    out.requeue.push_back(std::move(job));
  }
  out.report.requeued = out.requeue.size();

  out.known_ids.assign(known_ids.begin(), known_ids.end());
  out.next_lsn = next_lsn;
  out.next_seq = next_seq;
  metrics.on_recovery(out.report.replayed_terminal, out.report.requeued,
                      out.report.quarantined);
  return out;
}

}  // namespace dsm::svc
