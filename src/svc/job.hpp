// Request/response types for the sort service.
//
// A JobSpec describes one sort request as a client would pose it: how many
// keys, which distribution, how many simulated processors — but not which
// algorithm, programming model, or radix size to use. Choosing that
// combination is the Planner's job (the paper's model-selection question,
// answered per request). A job may pin any subset of the three dimensions
// (`force_*`) for A/B probes and failure injection, carry a virtual-time
// deadline the executor enforces both predictively (load shedding) and
// during the run (straggler abort), and a priority that exempts critical
// work from shedding.
//
// A JobResult carries the plan that was chosen, the predicted and measured
// virtual times, the job's fate as a typed Status, and the per-attempt
// retry history. Results are value types with a deterministic JSON
// rendering: replaying a trace must produce byte-identical result lines
// for any worker count (the service extends the sweep runner's
// determinism contract — deadlines are virtual-time, backoffs are seeded,
// so retries and deadline misses replay exactly).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "keys/distributions.hpp"
#include "sort/sort_api.hpp"

namespace dsm::svc {

/// Jobs at this priority or above are never shed and never deadline-
/// aborted mid-run: they run to completion and at worst report a miss.
constexpr int kCriticalPriority = 2;

/// The planner's decision for one job. (Defined before JobSpec because a
/// recovered job carries the plan its pre-crash incarnation journaled.)
struct Plan {
  sort::Algo algo = sort::Algo::kRadix;
  sort::Model model = sort::Model::kShmem;
  int radix_bits = 8;
  double predicted_raw_ns = 0;  // closed-form predictor, uncalibrated
  double predicted_ns = 0;      // after EWMA calibration

  // Best candidate from a different (algo, model) cell — the measured
  // opponent for plan-accuracy audits.
  bool has_runner_up = false;
  sort::Algo runner_algo = sort::Algo::kRadix;
  sort::Model runner_model = sort::Model::kShmem;
  int runner_radix_bits = 8;
  double runner_predicted_ns = 0;

  std::string to_json() const;
};

struct JobSpec {
  std::uint64_t id = 0;
  Index n = Index{1} << 20;
  int nprocs = 16;
  keys::Dist dist = keys::Dist::kGauss;
  std::uint64_t seed = 1;

  /// Record type the job sorts (DESIGN.md §11). Defaults to u32 — the
  /// paper's workload and the implicit type of every pre-existing journal
  /// (the codec only emits the field for non-u32 jobs, so old byte
  /// streams decode unchanged). Charged times are record-oblivious, so
  /// this never changes deadlines, shedding, or planner behaviour.
  keys::RecordType record = keys::RecordType::kU32;

  // Pin planner dimensions (unset = planner chooses).
  std::optional<sort::Algo> force_algo;
  std::optional<sort::Model> force_model;
  std::optional<int> force_radix_bits;

  /// Completion deadline in virtual microseconds (0 = none). Virtual, not
  /// host, time: whether a job makes its deadline is a property of the
  /// simulated sort and therefore identical in live and replay runs.
  std::uint64_t deadline_us = 0;

  /// 0 = normal (sheddable); >= kCriticalPriority = must-run.
  int priority = 0;

  /// When nonempty, the executed sort writes its event trace here
  /// (per-job observability; an unwritable path makes the job fail).
  std::string trace_json_path;

  /// Host-side submit timestamp (seconds, steady clock), stamped by
  /// SortService::submit in live mode; 0 in replay mode. Never serialized
  /// into deterministic output.
  double host_submit_s = 0;

  // --- Durability bookkeeping (service-internal; never set by clients
  // and never serialized into client traces). ---

  /// Admission sequence number, assigned by the JobQueue when the job is
  /// accepted. Stable across crash recovery: a re-admitted job keeps its
  /// original seq so batch geometry and plan-audit alignment replay
  /// exactly.
  std::uint64_t svc_seq = 0;

  /// How many times this job was mid-flight when the process died at
  /// `crash_site`, carried across recoveries in the re-admission record.
  /// Reaching the quarantine threshold moves the job to the quarantine
  /// file instead of re-admitting it.
  int crash_count = 0;
  std::string crash_site;

  /// Plan journaled by a pre-crash incarnation. Recovery threads it back
  /// so the re-run executes the exact plan the uncrashed service chose —
  /// re-planning mid-batch could see calibration state the original plan
  /// pre-dated and drift from the golden (uncrashed) run.
  std::optional<Plan> recovered_plan;

  /// Admission-time sanity checks; every violated constraint is collected
  /// into one kInvalidArgument status (OK when valid). Deliberately does
  /// not cross-check algo x model feasibility — infeasible combinations
  /// are planner/executor failures, exercising per-job error isolation.
  Status validate_status() const;
};

enum class JobStatus {
  kOk,
  kFailed,
  kShed,          // rejected pre-run: predicted time exceeds the deadline
  kDeadlineMiss,  // ran (or was aborted mid-run) past its deadline
};

const char* job_status_name(JobStatus s);
/// Inverse of job_status_name; kCorruptJournal on an unknown name (its
/// one caller is the journal decoder).
Result<JobStatus> job_status_from_name(const std::string& name);

/// One failed attempt in a job's retry history.
struct AttemptRecord {
  std::string error;      // status text of the failure
  bool retryable = false;
  double backoff_ms = 0;  // deterministic backoff charged before the retry
                          // (0 on the final, non-retried attempt)
  /// FaultSite index when the failure was an injected fault, -1 otherwise.
  /// Journaled so recovery can replay per-site fault counters; not part
  /// of the JSON rendering.
  int fault_site = -1;
};

struct JobResult {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::kOk;
  std::string error;  // nonempty iff kFailed / kShed / kDeadlineMiss
  /// Typed final outcome: OK for kOk, otherwise the last failure.
  Status final_status;
  /// Failed attempts that preceded the final outcome (empty when the
  /// first attempt succeeded).
  std::vector<AttemptRecord> attempts;
  Plan plan;
  double measured_ns = 0;  // virtual time of the executed plan
  int passes = 0;
  bool verified = false;

  // Plan audit (every audit_every-th job): the runner-up plan is also
  // executed and the measured times compared.
  bool audited = false;
  double runner_measured_ns = 0;
  bool plan_hit = false;  // chosen plan beat the runner-up on measured time

  /// FaultSite index when the *final* failure was an injected fault, -1
  /// otherwise (the non-retried last attempt has no AttemptRecord, so the
  /// journal needs this to replay per-site fault counters exactly). Not
  /// part of the JSON rendering.
  int final_fault_site = -1;

  /// Host wall latency submit -> completion (live mode only; 0 in replay).
  double host_latency_ms = 0;

  /// One-line JSON. Deterministic fields only unless `include_host`.
  std::string to_json(bool include_host = false) const;
};

/// The SortSpec a (job, plan-dimension) pair executes as: what
/// run_attempt_here runs, in this process or on a cluster worker.
sort::SortSpec sort_spec_for(const JobSpec& job, sort::Algo algo,
                             sort::Model model, int radix_bits);

/// A virtual time in ns as microseconds, three decimals ("12.345us"):
/// the one rendering of every deadline message (shed, mid-run abort,
/// finished late), which replayed JSON compares byte for byte.
std::string us_text(double ns);

}  // namespace dsm::svc
