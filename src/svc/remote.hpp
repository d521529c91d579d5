// The seam between the service and whatever runs its attempts.
//
// SortService hands every execution attempt and audit to a
// RemoteExecutor: ServiceConfig::remote when set (cluster::WorkerPool,
// which ships the attempt to a worker process over the framed socket
// transport), otherwise the service's own InProcessExecutor, which runs
// it on the calling thread. Both run the attempt through one function,
// run_attempt_here: the same spec, the same hook order (mark, fault
// check, virtual-deadline abort), the same failure text. The interface
// is deliberately attempt-grained: retry policy, deadline
// classification, serialize-fault injection, journaling and metrics
// stay in svc/server, so a remote run is byte-identical to a local one
// (the determinism contract extends across process boundaries — see
// DESIGN.md §10).
//
// svc/ must not depend on cluster/ (the cluster depends on svc's job and
// codec types), so this header is the only thing the server knows about
// remote execution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"
#include "sort/sort_api.hpp"
#include "sort/verify.hpp"
#include "svc/faults.hpp"
#include "svc/job.hpp"
#include "svc/metrics.hpp"

namespace dsm::svc {

/// One execution attempt. `audit` runs measure the runner-up plan: no
/// marks, no faults, no deadline, no trace.
struct RemoteAttempt {
  JobSpec job;
  Plan plan;
  int attempt = 0;
  bool audit = false;
  /// End-to-end result integrity (DESIGN.md §12): when set, the executor
  /// must check every successful done against `expect` — the
  /// order-independent multiset fingerprint of the input the master
  /// computed at planning time — and discard + re-dispatch on mismatch
  /// instead of acking a corrupted result.
  bool check_integrity = false;
  sort::Checksum expect;
};

/// What the attempt produced. When `ran` is false the pool could not
/// execute the attempt anywhere (every worker dead and none spawnable)
/// and `failure` says why; when `ran` is true it is ok + measurements,
/// or a typed failure with the fault site that fired during the sort.
struct RemoteOutcome {
  bool ran = false;
  bool ok = false;
  Status failure;
  double measured_ns = 0;
  int passes = 0;
  bool verified = false;
  int fired_site = -1;  // FaultSite that fired during the attempt, or -1
};

class RemoteExecutor {
 public:
  using MarkFn = std::function<void(const char* site, double virtual_ns)>;
  using DispatchFn = std::function<void(const std::string& worker)>;

  virtual ~RemoteExecutor() = default;

  /// Run one attempt on some worker, blocking until it completes (or the
  /// pool exhausts its re-dispatch budget). `on_mark` fires on the
  /// calling thread for every progress mark the worker reports (the
  /// server journals kMark and drives its durability crash hook there);
  /// `on_dispatch` fires after a worker is chosen, before the task is
  /// sent (the server journals kDispatch there — the WAL record that
  /// lets a master crash re-drive unacknowledged dispatches).
  virtual RemoteOutcome run_attempt(const RemoteAttempt& attempt,
                                    const MarkFn& on_mark,
                                    const DispatchFn& on_dispatch) = 0;

  /// Called once from the SortService constructor: the metrics registry
  /// to record cluster events into (borrowed), plus the service knobs
  /// every dispatched task must carry so a worker-side run is configured
  /// exactly like a local one (the fault universe and the input-cache
  /// budget cannot be allowed to drift between master and workers).
  virtual void bind_service(Metrics* metrics, const FaultConfig& faults,
                            std::uint64_t input_cache_budget_bytes) = 0;

  /// Batch-boundary signal from the server thread: `jobs` jobs were just
  /// planned with `predicted_ns` total predicted virtual cost and
  /// `queue_depth` jobs still queued behind them. The elastic pool
  /// resizes here (never mid-batch), so worker count changes cannot
  /// perturb in-flight leases.
  virtual void note_batch(std::size_t jobs, double predicted_ns,
                          std::size_t queue_depth) {
    (void)jobs;
    (void)predicted_ns;
    (void)queue_depth;
  }
};

/// The executor the service uses when ServiceConfig::remote is unset:
/// runs each attempt on the calling thread. It never calls `on_dispatch`
/// (nothing is dispatched) and ignores `check_integrity` (the result
/// never left the process).
class InProcessExecutor final : public RemoteExecutor {
 public:
  RemoteOutcome run_attempt(const RemoteAttempt& attempt,
                            const MarkFn& on_mark,
                            const DispatchFn& on_dispatch) override;
  void bind_service(Metrics*, const FaultConfig& faults,
                    std::uint64_t) override {
    faults_ = faults;
  }

 private:
  FaultConfig faults_;
};

/// What run_attempt_here produced: the sort's result or typed failure,
/// and the FaultSite that fired during it (-1 if none).
struct AttemptRun {
  Result<sort::SortResult> result;
  int fired_site = -1;
};

/// Run one attempt in the calling process — the one attempt body behind
/// the in-process service and the cluster worker. A primary attempt runs
/// sort_spec_for(job, plan) with a hook that, at every phase mark, calls
/// `on_mark` (may be empty; may throw to abort the sort), then fires the
/// keygen/sort-phase fault `faults` decides for (job, attempt, site),
/// then aborts with kDeadlineExceeded once virtual time passes the job's
/// deadline (never for kCriticalPriority jobs). An audit attempt runs
/// untraced with no hook at all.
AttemptRun run_attempt_here(const RemoteAttempt& attempt,
                            const FaultConfig& faults,
                            const RemoteExecutor::MarkFn& on_mark);

}  // namespace dsm::svc
