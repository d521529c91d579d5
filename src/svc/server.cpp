#include "svc/server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "sas/shared_array.hpp"
#include "sim/sweep.hpp"
#include "sort/input_cache.hpp"
#include "sort/record_share.hpp"
#include "svc/snapshot.hpp"

namespace dsm::svc {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Durable append of one line (the quarantine file). Best-effort: the
/// journal's quarantine record is the authoritative copy.
void append_line_durable(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

SortService::SortService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      executor_(cfg_.remote != nullptr ? cfg_.remote : &local_),
      queue_(cfg_.queue_capacity),
      injector_(cfg_.faults),
      planner_(cfg_.planner) {
  DSM_REQUIRE(cfg_.max_batch >= 1, "max_batch >= 1");
  DSM_REQUIRE(cfg_.max_batch <= cfg_.queue_capacity,
              "max_batch must fit in the queue (replay feeds full batches)");
  DSM_REQUIRE(cfg_.max_attempts >= 1, "max_attempts >= 1");
  DSM_REQUIRE(cfg_.retry_backoff_base_ms >= 0 &&
                  cfg_.retry_backoff_cap_ms >= cfg_.retry_backoff_base_ms,
              "retry backoff cap must be >= base >= 0");
  DSM_REQUIRE(!durable() || cfg_.workers == 1,
              "durability requires workers == 1 (snapshots between batches "
              "must cover every in-flight job)");
  // Hand the executor our metrics registry plus the knobs every attempt
  // must carry, so a worker-side run is configured exactly like a local
  // one.
  executor_->bind_service(&metrics_, cfg_.faults,
                          cfg_.input_cache_budget_bytes);
  if (durable()) recover();
}

void SortService::recover() {
  const double t0 = now_s();
  RecoveryOutcome rec =
      recover_dir(cfg_.durability.dir, planner_, metrics_);
  known_ids_.insert(rec.known_ids.begin(), rec.known_ids.end());
  queue_.set_next_seq(rec.next_seq);

  JournalConfig jc;
  jc.dir = cfg_.durability.dir;
  jc.fsync_data = cfg_.durability.fsync_data;
  jc.crash_hook = cfg_.durability.crash_hook;
  journal_ = std::make_unique<JournalWriter>(jc, rec.next_lsn);

  for (QuarantineEntry& q : rec.quarantine) quarantine_job(std::move(q));
  for (JobSpec& j : rec.requeue) {
    // The re-admission record carries the accumulated crash bookkeeping
    // and the pre-crash plan, so they survive the *next* crash too. If we
    // die before restoring the queue, the next recovery recomputes the
    // same re-admission from this record — idempotent.
    JournalRecord r;
    r.type = RecordType::kAdmit;
    r.seq = j.svc_seq;
    r.job = j;
    r.readmit = true;
    journal_->append(r);
    queue_.restore(std::move(j));
  }
  recovery_report_ = rec.report;
  recovery_report_.recovery_host_ms = (now_s() - t0) * 1e3;
}

void SortService::quarantine_job(QuarantineEntry entry) {
  const std::string msg =
      "job " + std::to_string(entry.job.id) +
      " quarantined: crashed the process " +
      std::to_string(entry.crash_count) + "x at " + entry.crash_site;

  JournalRecord quar;
  quar.type = RecordType::kQuarantine;
  quar.seq = entry.job.svc_seq;
  quar.job = entry.job;
  quar.crash_count = entry.crash_count;
  quar.site = entry.crash_site;
  journal_->append(quar);

  JobResult res;
  res.id = entry.job.id;
  res.status = JobStatus::kFailed;
  res.final_status = Status::quarantined(msg);
  res.error = msg;
  if (entry.job.recovered_plan) res.plan = *entry.job.recovered_plan;
  JournalRecord term;
  term.type = RecordType::kTerminal;
  term.seq = entry.job.svc_seq;
  term.result = res;
  journal_->append(term);

  metrics_.on_complete(res);

  std::ostringstream line;
  line << "{\"id\": " << entry.job.id << ", \"seq\": " << entry.job.svc_seq
       << ", \"crash_count\": " << entry.crash_count << ", \"crash_site\": \""
       << json_escape(entry.crash_site) << "\", \"history\": [";
  for (std::size_t i = 0; i < entry.history.size(); ++i) {
    line << (i ? ", " : "") << "\"" << json_escape(entry.history[i]) << "\"";
  }
  line << "]}\n";
  append_line_durable(quarantine_path(cfg_.durability.dir), line.str());

  const std::lock_guard<std::mutex> lock(results_mu_);
  results_.push_back(std::move(res));
}

void SortService::write_checkpoint() {
  SnapshotData s;
  {
    // Capture and rotate atomically against durable admissions: the new
    // segment starts exactly at the snapshot LSN, so every older segment
    // holds only records the snapshot covers and is safe to prune.
    const std::lock_guard<std::mutex> lock(durable_mu_);
    s.lsn = journal_->next_lsn();
    s.next_seq = queue_.next_seq();
    s.inflight = queue_.snapshot_jobs();
    s.planner_cells = planner_.export_cells();
    s.metrics = metrics_.export_state();
    s.known_ids.assign(known_ids_.begin(), known_ids_.end());
    std::sort(s.known_ids.begin(), s.known_ids.end());
    journal_->rotate();
  }
  const Status st = write_snapshot(snapshot_path(cfg_.durability.dir), s,
                                   cfg_.durability.crash_hook);
  if (!st.ok()) {
    // Journal remains authoritative; retry next round. Counted so the
    // chaos bench can see checkpointing degrade without losing state.
    metrics_.on_snapshot_failure();
    return;
  }
  if (!cfg_.durability.keep_all_segments) {
    prune_segments(cfg_.durability.dir, s.lsn);
  }
  metrics_.on_snapshot();
  batches_since_snapshot_ = 0;
}

SortService::~SortService() { drain(); }

void SortService::start() {
  DSM_REQUIRE(!started_, "service already started");
  DSM_REQUIRE(!queue_.closed(), "service already drained");
  started_ = true;
  server_ = std::thread([this] { server_loop(); });
}

Admission SortService::submit(JobSpec job, Status* why) {
  Admission a;
  bool counted = false;
  const Status invalid = job.validate_status();
  if (!invalid.ok()) {
    a = Admission::kRejectedInvalid;
  } else if (injector_.should_fire(FaultSite::kQueueAdmission, job.id,
                                   /*attempt=*/0)) {
    // A flaky front end: the client sees a retryable rejection and may
    // resubmit; the service never saw the job, so nothing is retried
    // internally.
    metrics_.on_fault(FaultSite::kQueueAdmission);
    a = Admission::kRejectedFault;
  } else {
    job.host_submit_s = now_s();
    if (durable()) {
      // Serialized against checkpoint capture; see durable_mu_. The
      // admit record is fsynced before the client sees kAccepted — an
      // accepted job is never lost to a crash.
      const std::lock_guard<std::mutex> lock(durable_mu_);
      if (known_ids_.count(job.id) != 0) {
        // Idempotent resubmission (e.g. a client blindly replaying its
        // trace after our crash): the job's fate is already owned by the
        // journal; never run it twice.
        a = Admission::kRejectedDuplicate;
      } else {
        std::uint64_t seq = 0;
        a = queue_.try_submit(job, &seq);
        if (a == Admission::kAccepted) {
          known_ids_.insert(job.id);
          JournalRecord r;
          r.type = RecordType::kAdmit;
          r.seq = seq;
          job.svc_seq = seq;
          r.job = std::move(job);
          journal_->append(r);
          metrics_.on_admission(a);
          counted = true;
        }
      }
    } else {
      a = queue_.try_submit(std::move(job));
    }
  }
  if (why != nullptr) *why = invalid.ok() ? admission_status(a) : invalid;
  if (!counted) metrics_.on_admission(a);
  return a;
}

void SortService::drain() {
  if (drained_) return;  // idempotent: the first drain did all the work
  queue_.close();
  if (server_.joinable()) {
    server_.join();
  } else {
    // Never started (or replay-only use): drain whatever was admitted
    // inline, so drain() always leaves the queue empty.
    server_loop();
  }
  if (durable()) write_checkpoint();  // final checkpoint + segment prune
  drained_ = true;
}

std::vector<JobResult> SortService::take_results() {
  const std::lock_guard<std::mutex> lock(results_mu_);
  return std::exchange(results_, {});
}

std::vector<JobResult> SortService::replay(
    const std::vector<JobSpec>& trace) {
  DSM_REQUIRE(!started_, "replay requires a service not running live");
  DSM_REQUIRE(!queue_.closed(), "service already drained");
  DSM_REQUIRE(!durable(),
              "replay bypasses admission journaling; durable services use "
              "submit + drain");
  std::vector<JobSpec> batch;
  for (std::size_t begin = 0; begin < trace.size();
       begin += cfg_.max_batch) {
    const std::size_t end =
        std::min(trace.size(), begin + cfg_.max_batch);
    // Feed the round through the real queue path (capacity >= max_batch
    // by construction, so nothing is rejected), then pop and process it —
    // the exact live-mode round, at fixed batch geometry. Admission
    // faults are deliberately not replayed: a trace is the *admitted*
    // stream, and a job rejected at the front end never entered it.
    for (std::size_t i = begin; i < end; ++i) {
      const Admission a = queue_.try_submit(trace[i]);
      metrics_.on_admission(a);
      DSM_CHECK(a == Admission::kAccepted, "replay submit rejected");
    }
    batch.clear();
    const std::size_t got = queue_.pop_batch(cfg_.max_batch, batch);
    DSM_CHECK(got == end - begin, "replay round popped short");
    metrics_.note_queue_depth(queue_.high_water());
    process_batch(batch);
  }
  return take_results();
}

void SortService::server_loop() {
  std::vector<JobSpec> batch;
  for (;;) {
    batch.clear();
    const std::size_t got = queue_.pop_batch(cfg_.max_batch, batch);
    if (got == 0) return;  // closed and drained
    metrics_.note_queue_depth(queue_.high_water());
    process_batch(batch);
  }
}

double SortService::backoff_ms_for(const JobSpec& job, int attempt) const {
  const double exp =
      cfg_.retry_backoff_base_ms *
      static_cast<double>(std::uint64_t{1} << std::min(attempt, 20));
  const double capped = std::min(cfg_.retry_backoff_cap_ms, exp);
  // Seeded jitter in [0.5, 1.0]: decorrelates retry storms across jobs
  // while keeping the recorded backoff values replayable.
  SplitMix64 rng(mix_seed(mix_seed(cfg_.faults.seed, job.seed),
                          mix_seed(job.id, static_cast<std::uint64_t>(
                                               attempt))));
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  return capped * (0.5 + 0.5 * u);
}

void SortService::plan_one(const JobSpec& job, JobResult& out,
                           std::optional<Plan>& plan) {
  for (int attempt = 0;; ++attempt) {
    Status failure;
    int fired_site = -1;
    if (injector_.should_fire(FaultSite::kPlannerCalibration, job.id,
                              attempt)) {
      metrics_.on_fault(FaultSite::kPlannerCalibration);
      fired_site = static_cast<int>(FaultSite::kPlannerCalibration);
      failure =
          FaultInjector::fire(FaultSite::kPlannerCalibration, job.id, attempt);
    } else {
      Result<Plan> r = planner_.try_plan(job);
      if (r.ok()) {
        plan = std::move(r).value();
        out.plan = *plan;
        return;
      }
      failure = r.status();
    }
    if (failure.retryable() && attempt + 1 < cfg_.max_attempts) {
      // Planning is host-cheap; record the backoff but never sleep for it.
      out.attempts.push_back(AttemptRecord{failure.to_string(), true,
                                           backoff_ms_for(job, attempt),
                                           fired_site});
      continue;
    }
    out.status = JobStatus::kFailed;
    out.final_status = failure;
    out.error = failure.message();
    out.final_fault_site = fired_site;
    return;
  }
}

void SortService::process_batch(std::vector<JobSpec>& batch) {
  const std::size_t count = batch.size();
  std::vector<JobResult> results(count);
  std::vector<std::optional<Plan>> plans(count);

  // Plan sequentially against one calibration snapshot: plans depend only
  // on admission order and batch geometry, not on the worker count.
  for (std::size_t i = 0; i < count; ++i) {
    results[i].id = batch[i].id;
    if (batch[i].recovered_plan.has_value()) {
      // Execute exactly the plan a pre-crash incarnation journaled:
      // re-planning could see calibration state the original plan
      // pre-dated and drift from the uncrashed run.
      plans[i] = batch[i].recovered_plan;
      results[i].plan = *plans[i];
    } else {
      plan_one(batch[i], results[i], plans[i]);
      if (durable() && plans[i].has_value()) {
        JournalRecord r;
        r.type = RecordType::kPlanned;
        r.seq = batch[i].svc_seq;
        r.plan = *plans[i];
        journal_->append(r);
      }
    }

    // Predicted-cost load shedding: if even the calibrated estimate blows
    // the deadline, refuse to burn the machine time. Critical jobs are
    // exempt and take their chances.
    if (plans[i].has_value() && batch[i].deadline_us > 0 &&
        batch[i].priority < kCriticalPriority) {
      const double deadline_ns =
          static_cast<double>(batch[i].deadline_us) * 1e3;
      if (plans[i]->predicted_ns > deadline_ns) {
        results[i].status = JobStatus::kShed;
        results[i].final_status = Status::deadline_exceeded(
            "shed: predicted " + us_text(plans[i]->predicted_ns) +
            " > deadline " + us_text(deadline_ns));
        results[i].error = results[i].final_status.message();
        plans[i].reset();  // keep the plan in the result, skip execution
      }
    }
  }

  // Batch-boundary elasticity signal: a pool may resize here (and only
  // here), so the worker-process count never changes mid-batch.
  double predicted_ns = 0;
  for (const auto& p : plans) {
    if (p.has_value()) predicted_ns += p->predicted_ns;
  }
  executor_->note_batch(count, predicted_ns, queue_.depth());

  // Execute concurrently; every cell only writes its own slot and never
  // throws (failures are recorded in the slot), so one poisoned job
  // cannot take down the round. The per-job index is the admission seq —
  // stable across crash recovery, and identical to the old running count
  // for an uncrashed service (accepted jobs number densely from 0).
  sim::run_indexed(count, cfg_.workers, [&](std::size_t i) {
    if (cfg_.input_cache_budget_bytes != 0) {
      sort::input_cache_set_budget(cfg_.input_cache_budget_bytes);
    }
    if (!plans[i].has_value()) return;  // failed at planning, or shed
    execute_one(batch[i], *plans[i], batch[i].svc_seq, results[i]);
    // The job's attempts and audit are the sorts its input's shared
    // records serve: free them now, on this worker, rather than leave
    // them resident until another job's record of their kind starts
    // (DESIGN.md §5.3). A later job of the same input records afresh,
    // which costs host time only.
    sort::release_retained_records(sort_spec_for(
        batch[i], plans[i]->algo, plans[i]->model, plans[i]->radix_bits));
  });

  // Observe and record in batch order — deterministic calibration. Only
  // jobs that actually ran carry a measurement worth folding in. The
  // terminal record is journaled *before* the in-memory state changes
  // (write-ahead): a crash in between replays the observation from the
  // journal.
  for (std::size_t i = 0; i < count; ++i) {
    if (durable()) {
      JournalRecord r;
      r.type = RecordType::kTerminal;
      r.seq = batch[i].svc_seq;
      r.result = results[i];
      journal_->append(r);
    }
    if ((results[i].status == JobStatus::kOk ||
         results[i].status == JobStatus::kDeadlineMiss) &&
        results[i].measured_ns > 0) {
      planner_.observe(results[i].plan, results[i].measured_ns);
    }
    metrics_.on_complete(results[i]);
  }

  {
    const std::lock_guard<std::mutex> lock(results_mu_);
    results_.insert(results_.end(),
                    std::make_move_iterator(results.begin()),
                    std::make_move_iterator(results.end()));
  }

  if (durable()) {
    // Disk-health poll (DESIGN.md §12): if the journal dropped records
    // this batch, the batch's jobs completed but their records never
    // became durable — keep serving, surface the degradation in Metrics.
    const std::uint64_t dropped = journal_->records_dropped();
    if (dropped > journal_dropped_seen_) {
      metrics_.on_degraded_append(dropped - journal_dropped_seen_);
      metrics_.on_non_durable_jobs(count);
      journal_dropped_seen_ = dropped;
    }
    const std::uint64_t heals = journal_->heals();
    for (; journal_heals_seen_ < heals; ++journal_heals_seen_) {
      metrics_.on_durability_heal();
    }
    ++batches_since_snapshot_;
    if (cfg_.durability.snapshot_every_batches > 0 &&
        batches_since_snapshot_ >= cfg_.durability.snapshot_every_batches) {
      write_checkpoint();
    }
  }
}

void SortService::execute_one(const JobSpec& job, const Plan& plan,
                              std::uint64_t seq, JobResult& out) {
  const double deadline_ns = static_cast<double>(job.deadline_us) * 1e3;
  const auto attempt_of = [&](const Plan& cell, bool audit) {
    RemoteAttempt a;
    a.job = job;
    a.plan = cell;
    a.audit = audit;
    if (cfg_.remote != nullptr && cfg_.verify_remote_integrity) {
      // End-to-end integrity (DESIGN.md §12) guards results that cross a
      // process boundary; an in-process attempt pays no checksum. Keygen
      // depends on (dist, n, nprocs, radix_bits, seed) only, so this is
      // usually an input-cache hit.
      a.check_integrity = true;
      a.expect = sort::input_checksum_cached(job.dist, job.n, job.nprocs,
                                             cell.radix_bits, job.seed);
    }
    return a;
  };
  RemoteAttempt ra = attempt_of(plan, /*audit=*/false);
  const auto on_mark = [this, seq](const char* site, double) {
    if (!durable()) return;
    // Progress mark: pins a crash during this phase to the precise
    // "execute:<site>" identity quarantine counting keys on.
    JournalRecord m;
    m.type = RecordType::kMark;
    m.seq = seq;
    m.site = site;
    journal_->append(m);
    if (cfg_.durability.crash_hook) {
      cfg_.durability.crash_hook((std::string("exec.") + site).c_str(), seq);
    }
  };
  const auto on_dispatch = [this, seq, &ra](const std::string& w) {
    if (!durable()) return;
    // WAL the dispatch before the task leaves the master: a crash right
    // after the send still knows this attempt may have reached worker
    // `w`, and recovery re-drives it like a started attempt.
    JournalRecord d;
    d.type = RecordType::kDispatch;
    d.seq = seq;
    d.attempt = ra.attempt;
    d.site = w;
    journal_->append(d);
  };

  for (int attempt = 0;; ++attempt) {
    if (durable()) {
      JournalRecord r;
      r.type = RecordType::kAttemptStart;
      r.seq = seq;
      r.attempt = attempt;
      journal_->append(r);
    }
    ra.attempt = attempt;
    const RemoteOutcome ro = executor_->run_attempt(ra, on_mark, on_dispatch);
    int fired_site = ro.fired_site;
    if (fired_site >= 0) {
      metrics_.on_fault(static_cast<FaultSite>(fired_site));
    }
    Status failure = ro.failure;

    if (ro.ran && ro.ok) {
      if (injector_.should_fire(FaultSite::kSerialize, job.id, attempt)) {
        // The sort finished but its result was lost on the way out; the
        // whole attempt must rerun. (Serialization is a master-side step,
        // so this fires here even in cluster mode.)
        metrics_.on_fault(FaultSite::kSerialize);
        fired_site = static_cast<int>(FaultSite::kSerialize);
        failure = FaultInjector::fire(FaultSite::kSerialize, job.id, attempt);
      } else {
        out.measured_ns = ro.measured_ns;
        out.passes = ro.passes;
        out.verified = ro.verified;
        if (job.deadline_us > 0 && ro.measured_ns > deadline_ns) {
          out.status = JobStatus::kDeadlineMiss;
          out.final_status = Status::deadline_exceeded(
              "finished late: measured " + us_text(ro.measured_ns) +
              " > deadline " + us_text(deadline_ns));
          out.error = out.final_status.message();
        }
        break;  // job ran to completion (on time or late)
      }
    } else if (failure.code() == StatusCode::kDeadlineExceeded) {
      // Mid-run abort: the job ran and missed; rerunning cannot help.
      out.status = JobStatus::kDeadlineMiss;
      out.final_status = failure;
      out.error = failure.message();
      return;
    }

    if (failure.retryable() && attempt + 1 < cfg_.max_attempts) {
      const double back = backoff_ms_for(job, attempt);
      out.attempts.push_back(
          AttemptRecord{failure.to_string(), true, back, fired_site});
      if (durable()) {
        JournalRecord ar;
        ar.type = RecordType::kAttemptResult;
        ar.seq = seq;
        ar.attempt = attempt;
        ar.attempt_result = out.attempts.back();
        journal_->append(ar);
      }
      if (job.host_submit_s > 0) {
        // Live mode only: replay must not depend on host sleeping.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(back));
      }
      continue;
    }
    out.status = JobStatus::kFailed;
    out.final_status = failure;
    out.error = failure.message();
    out.final_fault_site = fired_site;
    return;
  }

  if (out.status == JobStatus::kOk && cfg_.audit_every != 0 &&
      seq % cfg_.audit_every == 0 && plan.has_runner_up) {
    // Measure the runner-up plan. Audit dispatches are not journaled: an
    // audit is re-derivable from the terminal record and re-running it
    // after a crash costs one sort, not correctness.
    out.audited = true;
    Plan runner = plan;
    runner.algo = plan.runner_algo;
    runner.model = plan.runner_model;
    runner.radix_bits = plan.runner_radix_bits;
    const RemoteOutcome ro = executor_->run_attempt(
        attempt_of(runner, /*audit=*/true), nullptr, nullptr);
    if (ro.ran && ro.ok) {
      out.runner_measured_ns = ro.measured_ns;
      out.plan_hit = out.measured_ns <= out.runner_measured_ns;
    } else {
      // The runner-up itself is infeasible: the planner's choice stands.
      out.runner_measured_ns = -1;
      out.plan_hit = true;
    }
  }
  if (job.host_submit_s > 0) {
    out.host_latency_ms = (now_s() - job.host_submit_s) * 1e3;
  }
}

}  // namespace dsm::svc
