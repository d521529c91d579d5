// Cooperative SPMD scheduler: every rank is a stackful fiber (ucontext)
// multiplexed on the calling thread.
//
// The simulator runs the same body on every logical rank and synchronises
// exclusively through barrier-with-completion collectives (see
// sim::SimTeam::reconcile). A rank runs uninterrupted until it arrives at
// a barrier; the last arriver runs the completion inline and continues,
// everyone else parks until the round releases. The engine is
// bulk-synchronous and completions are pure functions over the
// rank-indexed deposits, so the host schedule cannot reach a virtual time;
// the host pays fiber swaps, not kernel context switches, per round.
//
// Error semantics:
//  * a rank's exception poisons the team; ranks parked at the unreleased
//    round (and any rank arriving later) throw
//    "barrier poisoned: a team member failed";
//  * run() rethrows the exception that poisoned the team — the first
//    failure in the deterministic round-robin order — after every fiber
//    has fully unwound (no stack is ever abandoned);
//  * a poisoned scheduler refuses further rounds but stays destructible.
//
// Thread-compatible, not thread-safe: one scheduler services one team on
// one host thread (each parallel sweep worker owns its own teams), so no
// atomics or locks are needed anywhere on the barrier path.
#pragma once

#include <functional>
#include <memory>

namespace dsm {

class CoopScheduler {
 public:
  explicit CoopScheduler(int nprocs);
  ~CoopScheduler();

  CoopScheduler(const CoopScheduler&) = delete;
  CoopScheduler& operator=(const CoopScheduler&) = delete;

  /// Run `body(rank)` on every rank to completion (blocking). Rethrows the
  /// error that poisoned the team, after every rank has unwound.
  void run(const std::function<void(int)>& body);

  /// Block until every rank arrives. The last arriver runs `completion`
  /// (if nonempty) before anyone is released; SPMD callers pass the same
  /// logical completion from every rank. Throws Error once the team is
  /// poisoned.
  void arrive_and_wait(const std::function<void()>& completion);

  /// Mark the team unusable; parked ranks then unwind with an Error.
  void poison();
  bool poisoned() const;

  struct Impl;  // public so the fiber trampoline (file-local) can see it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace dsm
