// The master side of the cluster tier: a pool of worker processes
// behind svc::RemoteExecutor.
//
// The pool shards the service's execution attempts across N worker
// processes. Two worker sources compose freely:
//
//   * fork-spawned workers over an AF_UNIX socketpair (start(), elastic
//     resize, crash respawn) — the in-process default;
//   * external `dsmsort_workerd` processes that connect to a listening
//     UNIX socket (serve()) — the multi-binary deployment shape.
//
// Leasing: each of the server's executor threads blocks in run_attempt
// until a free worker exists, leases it, drives the whole task
// conversation (task -> marks -> done) over that worker's channel, and
// releases it. One task per channel at a time; death (kPeerDead or a
// corrupt frame) triggers bounded re-dispatch of the *same* attempt to
// another worker. Because worker-side execution is a pure function of
// (job, plan, attempt, fault config), a re-dispatched attempt reproduces
// the dead worker's outcome bit-for-bit: crash re-dispatch cannot
// perturb replay output. The master never executes sorts itself in
// cluster mode; losing a worker never loses a job, and no job executes
// its terminal effects twice.
//
// Gray failures (ISSUE 9, DESIGN.md §12). With heartbeat_ms > 0 the
// drive loop polices *silence* with the pure health lattice in
// health.hpp: a worker silent past the suspect budget gets its task
// hedged to a free worker (same job/plan/attempt — the duplicate is
// byte-equivalent by the purity argument above, so whichever copy
// finishes first wins and the loser is cancelled without perturbing
// replay); silent past twice the budget it is written off as dead.
// Every successful done is integrity-checked before it counts: the
// worker's reported input multiset checksum must equal the expectation
// computed master-side at planning time, and its sorted-run verification
// must have passed. A mismatch is a typed kIntegrityViolation — the
// result is discarded, the attempt re-dispatched, and the worker struck;
// integrity_strikes strikes move it to kQuarantined (reaped, its own
// gauge, never leased again). Respawns after consecutive deaths back
// off exponentially (capped) so a crash-looping host cannot melt the
// master.
//
// Elasticity: resizing happens only at batch boundaries (note_batch on
// the server thread): spawn up to the lifecycle policy's target, retire
// free workers above it (kDraining -> kDead, reaped). Worker state
// gauges, spawn/retire/death/respawn/re-dispatch counters and the
// dispatch->ack latency histogram land in the bound svc::Metrics.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "cluster/lifecycle.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "svc/remote.hpp"

namespace dsm::cluster {

struct PoolConfig {
  ElasticPolicy policy;
  /// Give up on an attempt after this many worker deaths while running
  /// it (the attempt itself, not the job, which still has the service's
  /// retry budget on top).
  int max_redispatch = 3;
  /// Allow fork-spawning workers. Off for a serve()-only master that
  /// relies entirely on externally connected dsmsort_workerd processes.
  bool fork_workers = true;
  /// Label prefix and (for fork-spawned workers) the crash hook.
  WorkerOptions worker;

  /// Heartbeat period workers must honour (--heartbeat-ms /
  /// DSMSORT_HEARTBEAT_MS). 0 disables the health protocol: reads block
  /// without bound and no hedging happens (the PR 7 behaviour).
  int heartbeat_ms = 0;
  /// Missed heartbeat periods before a leased worker turns suspect
  /// (--suspect-after / DSMSORT_SUSPECT_AFTER); dead at twice that.
  int suspect_after = 3;
  /// Integrity violations a worker may accumulate before quarantine.
  int integrity_strikes = 2;
};

class WorkerPool final : public svc::RemoteExecutor {
 public:
  explicit WorkerPool(PoolConfig cfg);
  ~WorkerPool() override;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Fork the initial complement (policy.max_workers, or min_workers
  /// under an elastic policy). kIoError when no worker could be spawned.
  Status start();

  /// Listen on a UNIX socket and accept external workers (handshake
  /// validated) on a background thread until shutdown.
  Status serve(const std::string& path);

  /// Graceful stop: shutdown message + reap every owned worker, close
  /// the listener, join the accept thread. Idempotent; the destructor
  /// calls it.
  void shutdown();

  // svc::RemoteExecutor.
  svc::RemoteOutcome run_attempt(const svc::RemoteAttempt& attempt,
                                 const MarkFn& on_mark,
                                 const DispatchFn& on_dispatch) override;
  void bind_service(svc::Metrics* metrics, const svc::FaultConfig& faults,
                    std::uint64_t input_cache_budget_bytes) override;
  void note_batch(std::size_t jobs, double predicted_ns,
                  std::size_t queue_depth) override;

  /// Workers currently kFree or kWorking.
  int alive_workers() const;
  /// Lifetime spawn count (fork + accepted), for tests.
  int total_spawned() const;
  /// Workers in kQuarantined (caught lying), for tests.
  int quarantined_workers() const;

  const PoolConfig& config() const { return cfg_; }

 private:
  struct Worker {
    int id = 0;
    std::string label;
    pid_t pid = 0;         // 0 for external workers (not our child)
    bool external = false;
    Channel ch;
    WorkerState state = WorkerState::kFree;
    /// Integrity violations charged to this worker (survives release:
    /// a liar that stays polite still accumulates strikes).
    int strikes = 0;
  };

  /// One dispatched copy of an attempt inside drive(): the primary, or
  /// a hedge duplicate issued when the primary turned suspect.
  struct Copy {
    Worker* w = nullptr;
    std::uint64_t task_id = 0;
    double last_rx_s = 0;       // host time of the last frame received
    std::uint64_t marks = 0;    // marks received from this copy
    bool hedge = false;
  };

  /// Lease a free worker; blocks until one exists. Returns nullptr when
  /// the pool is shut down or permanently worker-less.
  Worker* acquire();
  /// Non-blocking lease for hedging: nullptr when no worker is free
  /// right now (the hedge is simply skipped this round).
  Worker* try_acquire();
  void release(Worker& w);
  /// Channel failure while leased: reap, count the death, respawn (with
  /// capped-exponential backoff) when allowed.
  void fail_worker(Worker& w);
  /// Hedge loser: reap without counting a death, respawn when allowed.
  void cancel_worker(Worker& w);
  /// Integrity strike: below the threshold the (alive, responsive)
  /// worker is released so repeat offences accumulate on the same
  /// identity; at the threshold it is reaped into kQuarantined.
  void strike_worker(Worker& w);
  /// Run the task conversation: dispatch to `first`, police health,
  /// hedge on suspicion, verify integrity, settle winners/losers. Owns
  /// the lifecycle of every worker it touches (release/cancel/fail);
  /// a non-OK return means every copy failed and `first` is dead.
  Status drive(Worker* first, const svc::RemoteAttempt& attempt,
               const MarkFn& on_mark, const DispatchFn& on_dispatch,
               svc::RemoteOutcome* out);

  Status spawn_locked(bool respawn);
  void retire_locked(Worker& w);
  void reap_locked(Worker& w);
  int alive_locked() const;
  void update_gauges_locked();
  void accept_loop();

  PoolConfig cfg_;
  svc::Metrics* metrics_ = nullptr;  // borrowed; may stay null in tests
  svc::FaultConfig faults_;
  std::uint64_t cache_budget_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int next_worker_id_ = 0;
  int total_spawned_ = 0;
  std::uint64_t next_task_id_ = 0;
  /// Worker deaths with no intervening successful ack (backoff input).
  int consecutive_deaths_ = 0;
  bool shutdown_ = false;

  Channel listener_;
  std::thread accept_thread_;
};

}  // namespace dsm::cluster
