// Service metrics registry: admission counters, completion counters,
// robustness counters (sheds, deadline misses, retries, per-site injected
// faults), fixed-bucket latency and retry histograms, plan-audit hit
// rates, and predictor accuracy accumulators.
//
// Everything recorded here is derived from deterministic inputs (virtual
// times, seeded fault decisions, counters in processing order), so
// to_json() is part of the replay determinism contract: identical traffic
// in identical order produces byte-identical JSON for any worker count.
// Host wall-clock quantities are deliberately kept out; the bench reports
// those alongside, from its own measurements.
//
// The latency histogram uses fixed power-of-two virtual-microsecond
// buckets: bucket k counts jobs with measured time in [2^k, 2^(k+1)) us
// (k = 0..kLatencyBuckets-2; the last bucket is the overflow tail). The
// retry histogram counts jobs by the number of failed attempts that
// preceded their final outcome (last bucket = overflow).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "svc/faults.hpp"
#include "svc/job.hpp"
#include "svc/queue.hpp"

namespace dsm::svc {

class Metrics {
 public:
  static constexpr int kLatencyBuckets = 24;
  static constexpr int kRetryBuckets = 8;

  struct Counters {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_closed = 0;
    std::uint64_t rejected_invalid = 0;
    std::uint64_t rejected_fault = 0;
    std::uint64_t rejected_duplicate = 0;  // durable-mode idempotent resubmit
    std::uint64_t completed = 0;  // ran to completion: kOk + kDeadlineMiss
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;           // rejected pre-run on predicted cost
    std::uint64_t deadline_miss = 0;  // ran past (or aborted at) deadline
    std::uint64_t retry_attempts = 0;   // failed attempts that were retried
    std::uint64_t retry_successes = 0;  // jobs that succeeded after >=1 retry
    std::uint64_t audited = 0;
    std::uint64_t plan_hits = 0;
  };

  /// Durability/recovery counters. Unlike the request counters these are
  /// not part of the replay determinism contract across *processes* that
  /// crash differently — a recovered service legitimately reports the
  /// recoveries it performed — but they are deterministic for a given
  /// crash history, and zero for a service without a durability_dir.
  struct Durability {
    std::uint64_t journal_torn_tail = 0;  // segments ending in a torn record
    std::uint64_t journal_corrupt = 0;    // records failing CRC / framing
    std::uint64_t recoveries = 0;         // recovery passes that found state
    std::uint64_t replayed_terminal = 0;  // finished jobs replayed, not re-run
    std::uint64_t requeued = 0;           // in-flight jobs re-admitted
    std::uint64_t quarantined = 0;        // poison jobs refused re-admission
    std::uint64_t snapshots = 0;          // checkpoints written
  };

  struct Accuracy {
    std::uint64_t count = 0;       // jobs with a usable prediction
    double mean_rel_err_raw = 0;   // |raw predicted - measured| / measured
    double mean_rel_err_cal = 0;   // same with the calibrated prediction
    // Calibrated error over the first/second half of completions, in
    // processing order — the before/after view of online calibration.
    double first_half_cal = 0;
    double second_half_cal = 0;
  };

  /// Cluster-tier counters, gauges, and the dispatch->ack latency
  /// histogram (power-of-two host-microsecond buckets, same shape as the
  /// virtual-latency histogram). Deliberately kept out of to_json() and
  /// the snapshot State: ack latencies are host wall-clock and the
  /// spawn/retire history depends on the worker-process count, so
  /// folding them into the main report would break the byte-identical
  /// replay contract. cluster_json() reports them separately.
  struct Cluster {
    std::uint64_t dispatches = 0;    // tasks sent to a worker process
    std::uint64_t acks = 0;          // done messages received
    std::uint64_t redispatches = 0;  // attempts re-driven after a death
    std::uint64_t worker_deaths = 0;
    std::uint64_t workers_spawned = 0;    // forked + accepted, lifetime
    std::uint64_t workers_respawned = 0;  // spawns replacing a death
    std::uint64_t workers_retired = 0;    // elastic scale-down retires
    // Gray-failure layer (DESIGN.md §12).
    std::uint64_t heartbeats = 0;      // kHeartbeat frames received
    std::uint64_t hedges_issued = 0;   // duplicate dispatches on suspicion
    std::uint64_t hedges_won = 0;      // attempts settled by the hedge copy
    std::uint64_t hedge_losers = 0;    // copies cancelled after a winner
    std::uint64_t integrity_violations = 0;  // done results discarded
    std::uint64_t workers_quarantined = 0;   // strike threshold reached
    // Current worker-state gauges (last reported) and the peak alive
    // (free + working) complement.
    std::uint64_t gauge_free = 0;
    std::uint64_t gauge_working = 0;
    std::uint64_t gauge_draining = 0;
    std::uint64_t gauge_dead = 0;
    std::uint64_t gauge_quarantined = 0;
    std::uint64_t peak_alive = 0;
  };

  /// Disk-health counters for the degraded-durability mode (DESIGN.md
  /// §12): journal appends dropped to injected/real disk faults, jobs
  /// completed while the journal was degraded (their terminal records
  /// never became durable), segment heals, and failed checkpoint writes.
  /// Like Cluster, these depend on the fault environment rather than the
  /// request stream, so they stay out of to_json() and the snapshot
  /// State; disk_json() reports them separately.
  struct DiskHealth {
    std::uint64_t degraded_appends = 0;  // journal records dropped
    std::uint64_t non_durable_jobs = 0;  // jobs acked without a durable record
    std::uint64_t heals = 0;             // fresh-segment recoveries
    std::uint64_t snapshot_failures = 0; // checkpoint writes that failed
  };

  void on_admission(Admission a);
  void on_complete(const JobResult& r);
  /// An injected fault fired at `site` (counted per site).
  void on_fault(FaultSite site);
  void note_queue_depth(std::size_t depth);

  // Cluster-tier events (see cluster/master.cpp for the call sites).
  void on_remote_dispatch();
  void on_remote_ack(double host_us);  // dispatch->ack host latency
  void on_redispatch();
  void on_worker_spawn(bool respawn);
  void on_worker_death();
  void on_worker_retire();
  void on_worker_gauge(int free, int working, int draining, int dead,
                       int quarantined);

  // Gray-failure events (cluster/master.cpp drive loop).
  void on_heartbeat();
  void on_hedge_issued();
  void on_hedge_won();
  void on_hedge_loser();
  void on_integrity_violation();
  void on_worker_quarantine();

  // Durability events (recovery scan, checkpointing).
  void on_journal_torn_tail();
  void on_journal_corrupt(std::uint64_t records = 1);
  void on_recovery(std::uint64_t replayed_terminal, std::uint64_t requeued,
                   std::uint64_t quarantined);
  void on_snapshot();

  // Degraded-durability events (svc/journal.cpp, svc/server.cpp).
  void on_degraded_append(std::uint64_t records = 1);
  void on_non_durable_jobs(std::uint64_t jobs);
  void on_durability_heal();
  void on_snapshot_failure();

  Counters counters() const;
  Durability durability() const;
  Cluster cluster() const;
  DiskHealth disk_health() const;
  Accuracy accuracy() const;
  std::size_t queue_depth_high_water() const;
  std::vector<std::uint64_t> latency_histogram() const;
  /// Jobs by failed-attempt count (bucket k = k prior failures).
  std::vector<std::uint64_t> retry_histogram() const;
  std::vector<std::uint64_t> fault_counts() const;  // per FaultSite

  /// Deterministic JSON object (counters, histograms, faults, accuracy).
  std::string to_json() const;
  /// Histogram as CSV: bucket_lo_us,bucket_hi_us,count.
  std::string histogram_csv() const;
  /// Cluster-tier JSON (counters, gauges, dispatch->ack histogram) —
  /// host- and worker-count-dependent, hence separate from to_json().
  std::string cluster_json() const;
  /// Disk-health JSON (degraded-durability counters) — fault-environment
  /// dependent, hence separate from to_json().
  std::string disk_json() const;

  /// Complete registry state, for calibration snapshots. import_state
  /// replaces everything; export-then-import on a fresh registry yields a
  /// byte-identical to_json().
  struct State {
    Counters counters;
    Durability durability;
    std::size_t depth_high_water = 0;
    std::vector<std::uint64_t> latency_hist;  // kLatencyBuckets entries
    std::vector<std::uint64_t> retry_hist;    // kRetryBuckets entries
    std::vector<std::uint64_t> faults;        // kFaultSiteCount entries
    std::vector<double> rel_err_raw;
    std::vector<double> rel_err_cal;
  };
  State export_state() const;
  void import_state(const State& s);

 private:
  mutable std::mutex mu_;
  Counters c_;
  Durability d_;
  Cluster cl_;
  DiskHealth dh_;
  std::size_t depth_high_water_ = 0;
  std::uint64_t ack_hist_[kLatencyBuckets] = {};
  std::uint64_t hist_[kLatencyBuckets] = {};
  std::uint64_t retry_hist_[kRetryBuckets] = {};
  std::uint64_t faults_[kFaultSiteCount] = {};
  // Per-completion relative errors, in processing order.
  std::vector<double> rel_err_raw_;
  std::vector<double> rel_err_cal_;
};

}  // namespace dsm::svc
