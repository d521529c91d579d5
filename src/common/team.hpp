// SPMD execution engines.
//
// The simulator runs the same body on every logical rank and synchronises
// exclusively through barrier-with-completion collectives (see
// sim::SimTeam::reconcile). Two engines provide that contract:
//
//  * kThreads — one OS thread per rank parked on a condition-variable
//    barrier (the original engine). Functional concurrency only — all
//    *timing* is virtual — so oversubscribing the host (64 logical
//    processes on one core) is deliberate and harmless, but every
//    reconcile point costs kernel wakeups.
//  * kCooperative — every rank is a stackful fiber (ucontext) multiplexed
//    on the calling thread; a rank runs serially to its next reconcile
//    point and the last arriver runs the completion inline. Zero OS
//    threads, zero kernel barriers, and bit-identical virtual times
//    (completions are pure functions over the rank-indexed deposits, so
//    scheduling order cannot change results).
#pragma once

#include <functional>
#include <memory>

namespace dsm {

/// Run `body(rank)` on `nprocs` threads; rethrows the first exception any
/// rank threw (by rank order) after all threads have joined.
///
/// NOTE: if a rank throws while others are parked inside a barrier, the
/// program cannot continue (the barrier would wait forever); bodies are
/// expected to validate inputs *before* entering collective code, which is
/// why all runtime preconditions are checked on entry to collectives.
void run_spmd(int nprocs, const std::function<void(int)>& body);

enum class SpmdEngine {
  kThreads,
  kCooperative,
};

const char* engine_name(SpmdEngine e);

// A sort names its engine in SortSpec::engine (default kCooperative), a
// bare SimTeam in its constructor; no process-wide setting overrides it.

/// One SPMD team execution backend. All cross-rank synchronisation flows
/// through arrive_and_wait; the completion runs exactly once per round, on
/// the last arriver, while every other rank is quiescent.
class SpmdExecutor {
 public:
  virtual ~SpmdExecutor() = default;

  /// Run `body(rank)` on every rank to completion (blocking). Rethrows the
  /// first per-rank exception by rank order, after every rank has unwound.
  virtual void run(const std::function<void(int)>& body) = 0;

  /// Barrier with completion hook; semantics of CentralBarrier
  /// (throws Error once the team is poisoned).
  virtual void arrive_and_wait(const std::function<void()>& completion) = 0;

  /// Mark the team unusable and release any parked ranks with an Error.
  virtual void poison() = 0;
  virtual bool poisoned() const = 0;

  virtual int parties() const = 0;
};

std::unique_ptr<SpmdExecutor> make_spmd_executor(SpmdEngine engine,
                                                 int nprocs);

}  // namespace dsm
