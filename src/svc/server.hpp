// The sort service: queue -> planner -> executor -> metrics.
//
// SortService composes the existing layers into a long-running server.
// Jobs are admitted through a bounded JobQueue (submitters never block; a
// full queue rejects with a reason), planned by the calibrating Planner,
// and executed in FIFO batches on sim::run_indexed's host-thread pool.
//
// Determinism contract (extends the sweep runner's): processing is
// round-based. Each round takes up to `max_batch` jobs in admission
// order, plans them sequentially against the current calibration state,
// executes them concurrently (each job writes only its own result slot),
// then applies calibration observations and metrics in batch order. Plans,
// results, calibration, and metrics therefore depend only on the admission
// order and batch geometry — never on the worker count or host schedule.
// replay() feeds a trace through this path with fixed batch geometry, so
// replaying the same trace is byte-identical for any `workers`.
//
// Error isolation: every per-job step (planning, execution, auditing) is
// wrapped per job; a poisoned job yields a kFailed JobResult with the
// error text while the server keeps serving (the simulator's team-poison
// machinery guarantees the failing cell itself unwinds cleanly).
//
// Robustness: retryable failures (injected faults, transient I/O) are
// re-attempted up to max_attempts with capped exponential backoff and
// seeded jitter; the backoff *sleep* happens only in live mode, but the
// backoff *values* and attempt history are deterministic and replayed.
// Jobs with a deadline are shed before running when the calibrated
// prediction already exceeds it, aborted cooperatively at the next phase
// mark when their virtual time passes it mid-run, and marked
// kDeadlineMiss when they finish late; priority >= kCriticalPriority
// exempts a job from shedding and mid-run abort. Faults are injected
// deterministically per (seed, site, job, attempt) — see svc/faults.hpp.
//
// Shutdown: drain() closes the queue (subsequent submits are rejected
// with kRejectedClosed), processes everything already admitted, and joins
// the server thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "svc/faults.hpp"
#include "svc/job.hpp"
#include "svc/journal.hpp"
#include "svc/metrics.hpp"
#include "svc/planner.hpp"
#include "svc/queue.hpp"
#include "svc/recovery.hpp"
#include "svc/remote.hpp"

namespace dsm::svc {

/// Durability: write-ahead journal + calibration snapshots + crash
/// recovery. Off by default (empty dir); turning it on makes the service
/// single-worker (the recovery contract — snapshots taken between
/// batches cover every in-flight job — needs one processing pipeline).
struct DurabilityConfig {
  /// Directory for journal segments, the snapshot, and the quarantine
  /// file. Empty = durability off. Recovered on construction when it
  /// already holds state.
  std::string dir;
  /// Checkpoint every N processed batches (0 = only on drain). Each
  /// checkpoint rotates the journal and prunes covered segments.
  int snapshot_every_batches = 8;
  /// fsync journal appends (the durability guarantee; see JournalConfig).
  bool fsync_data = true;
  /// Keep journal segments a snapshot has covered instead of pruning
  /// them (the crash harness audits full history across incarnations).
  bool keep_all_segments = false;
  /// Test/harness hook fired at every durability I/O site; see
  /// JournalConfig::crash_hook.
  std::function<void(const char* site, std::uint64_t seq)> crash_hook;

  bool enabled() const { return !dir.empty(); }
};

struct ServiceConfig {
  std::size_t queue_capacity = 64;
  /// Host threads per batch (sim::resolve_jobs semantics: 0 = all).
  int workers = 1;
  /// Max jobs planned+executed per round. Part of the determinism
  /// contract: replaying a trace needs the same max_batch.
  std::size_t max_batch = 8;
  /// Every Nth accepted job also executes the planner's runner-up and
  /// compares measured times (0 = never; audits cost one extra sort).
  std::uint64_t audit_every = 4;
  /// Thread-local input-cache byte budget applied in worker cells
  /// (0 = keep the library default).
  std::uint64_t input_cache_budget_bytes = 0;
  /// Total tries per retryable step (first attempt + retries).
  int max_attempts = 3;
  /// Backoff before retry k is min(cap, base * 2^k) scaled by a seeded
  /// jitter in [0.5, 1.0]; slept only in live mode.
  double retry_backoff_base_ms = 1.0;
  double retry_backoff_cap_ms = 50.0;
  /// Fault injection (disabled by default: seed 0 / rate 0).
  FaultConfig faults;
  PlannerConfig planner;
  DurabilityConfig durability;
  /// Remote execution tier (borrowed; must outlive the service). When
  /// set, execution attempts and audits run on the executor's worker
  /// processes instead of on the service's InProcessExecutor; planning,
  /// retry, shedding, calibration and journaling stay here. The
  /// determinism contract is unchanged: results are byte-identical to a
  /// local run for any worker-process count.
  RemoteExecutor* remote = nullptr;
  /// End-to-end result integrity for remote attempts (DESIGN.md §12):
  /// compute the input's order-independent multiset fingerprint at
  /// dispatch time and require every successful worker done to report a
  /// matching consumed-input fingerprint plus a passed verification —
  /// otherwise the result is discarded and re-dispatched instead of
  /// acked. Costs one (cached) keygen per dispatched attempt.
  bool verify_remote_integrity = true;
};

class SortService {
 public:
  explicit SortService(ServiceConfig cfg = {});
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Live mode: start the server loop on its own thread.
  void start();

  /// Admission control; never blocks. Stamps the host submit time. When
  /// `why` is non-null it receives the typed admission outcome (OK on
  /// kAccepted, the full validation report on kRejectedInvalid, ...).
  Admission submit(JobSpec job, Status* why = nullptr);

  /// Close the queue, finish everything admitted, stop the server loop.
  /// Also drains inline when start() was never called. Idempotent.
  void drain();

  /// Replay mode: process `trace` synchronously with fixed batch
  /// geometry; returns results in trace order. Byte-identical output for
  /// any cfg.workers. Requires the service not to be running live.
  std::vector<JobResult> replay(const std::vector<JobSpec>& trace);

  /// Completed results in processing order (moves them out).
  std::vector<JobResult> take_results();

  const Metrics& metrics() const { return metrics_; }
  const Planner& planner() const { return planner_; }
  const JobQueue& queue() const { return queue_; }
  const ServiceConfig& config() const { return cfg_; }

  /// What construction-time recovery did (all-zero when durability is
  /// off or the directory was fresh).
  const RecoveryReport& recovery_report() const { return recovery_report_; }

 private:
  bool durable() const { return cfg_.durability.enabled(); }
  void recover();
  /// Refuse to re-admit a poison job: journal the quarantine + terminal,
  /// append the quarantine file, surface a kQuarantined JobResult.
  void quarantine_job(QuarantineEntry entry);
  /// Checkpoint planner + metrics + queued jobs, rotate the journal,
  /// prune covered segments (server thread only).
  void write_checkpoint();
  void server_loop();
  void process_batch(std::vector<JobSpec>& batch);
  /// Plan one job with planner-calibration fault injection and retry;
  /// leaves `plan` empty on final failure (recorded in `out`).
  void plan_one(const JobSpec& job, JobResult& out,
                std::optional<Plan>& plan);
  /// Execute+audit one job on executor_, with retry, the serialize
  /// fault and deadline classification; never throws (failures land in
  /// `out`).
  void execute_one(const JobSpec& job, const Plan& plan, std::uint64_t seq,
                   JobResult& out);
  /// Deterministic backoff before retry `attempt` of `job`.
  double backoff_ms_for(const JobSpec& job, int attempt) const;

  ServiceConfig cfg_;
  /// Runs every attempt and audit: cfg_.remote, or else local_.
  InProcessExecutor local_;
  RemoteExecutor* executor_;
  JobQueue queue_;
  FaultInjector injector_;
  Planner planner_;
  Metrics metrics_;

  std::thread server_;
  bool started_ = false;
  bool drained_ = false;

  // Durability (all empty/null when cfg_.durability is off).
  std::unique_ptr<JournalWriter> journal_;
  RecoveryReport recovery_report_;
  /// Serializes durable admissions against checkpoint capture, so a
  /// snapshot either fully contains an admission (metrics + queue entry)
  /// or the admission's journal record lands past the snapshot LSN —
  /// never half of each.
  std::mutex durable_mu_;
  /// Every job id ever admitted (duplicate-submit filter; guarded by
  /// durable_mu_).
  std::unordered_set<std::uint64_t> known_ids_;
  int batches_since_snapshot_ = 0;
  /// High-water marks of the journal's degraded-durability counters,
  /// polled at each batch tail to mark the batch's jobs non-durable in
  /// Metrics (server thread only).
  std::uint64_t journal_dropped_seen_ = 0;
  std::uint64_t journal_heals_seen_ = 0;

  std::mutex results_mu_;
  std::vector<JobResult> results_;
};

}  // namespace dsm::svc
