// The robustness subsystem end to end: deterministic fault injection at
// every named site, per-job isolation under a seeded fault matrix, replay
// determinism with faults armed, deadline shedding vs deadline-miss
// accounting, and the seeded retry-backoff schedule.
#include "svc/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace dsm::svc {
namespace {

constexpr std::uint64_t kMatrixFaultSeed = 1234;

ServiceConfig faulty_config(int workers, double rate,
                            std::uint32_t sites = kAllFaultSites) {
  ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 4;
  cfg.workers = workers;
  cfg.audit_every = 5;
  cfg.faults.seed = kMatrixFaultSeed;
  cfg.faults.rate = rate;
  cfg.faults.sites = sites;
  return cfg;
}

/// 40 small jobs, some with deadlines and some critical, so one run
/// exercises ok / failed / shed / deadline-miss / retry simultaneously.
std::vector<JobSpec> matrix_trace() {
  LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kBucket};
  mix.deadlines_us = {0, 0, 300, 100000};
  mix.priorities = {0, 0, 0, kCriticalPriority};
  return make_trace(77, 40, mix);
}

std::string fingerprint(SortService& svc, const std::vector<JobSpec>& trace) {
  std::string out;
  for (const JobResult& r : svc.replay(trace)) {
    out += r.to_json();
    out += '\n';
  }
  out += svc.metrics().to_json();
  out += '\n';
  out += svc.planner().calibration_json();
  return out;
}

TEST(FaultInjector, DecisionIsAPureFunctionOfTheTuple) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.rate = 0.5;
  const FaultInjector a(cfg), b(cfg);
  for (std::uint64_t job = 0; job < 64; ++job) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.should_fire(FaultSite::kSortPhase, job, attempt, 7),
                b.should_fire(FaultSite::kSortPhase, job, attempt, 7));
    }
  }
  // Every key component perturbs the decision universe: over many draws,
  // two configs differing only in seed must disagree somewhere.
  FaultConfig other = cfg;
  other.seed = 100;
  const FaultInjector c(other);
  int disagreements = 0;
  for (std::uint64_t job = 0; job < 64; ++job) {
    if (a.should_fire(FaultSite::kKeygen, job, 0) !=
        c.should_fire(FaultSite::kKeygen, job, 0)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires) {
  FaultConfig zero;
  zero.seed = 5;
  zero.rate = 0.0;
  FaultConfig one;
  one.seed = 5;
  one.rate = 1.0;
  const FaultInjector never(zero), always(one);
  for (std::uint64_t job = 0; job < 32; ++job) {
    EXPECT_FALSE(never.should_fire(FaultSite::kSerialize, job, 0));
    EXPECT_TRUE(always.should_fire(FaultSite::kSerialize, job, 0));
  }
  // Seed 0 disables injection regardless of rate.
  FaultConfig disabled;
  disabled.seed = 0;
  disabled.rate = 1.0;
  const FaultInjector off(disabled);
  EXPECT_FALSE(off.should_fire(FaultSite::kKeygen, 1, 0));
}

TEST(FaultInjector, SiteMaskArmsSitesIndependently) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.rate = 1.0;
  cfg.sites = fault_site_bit(FaultSite::kKeygen);
  const FaultInjector inj(cfg);
  EXPECT_TRUE(inj.should_fire(FaultSite::kKeygen, 3, 0));
  EXPECT_FALSE(inj.should_fire(FaultSite::kSortPhase, 3, 0));
  EXPECT_FALSE(inj.should_fire(FaultSite::kSerialize, 3, 0));
}

TEST(FaultInjector, RateIsRespectedInAggregate) {
  FaultConfig cfg;
  cfg.seed = 321;
  cfg.rate = 0.25;
  const FaultInjector inj(cfg);
  int fired = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    if (inj.should_fire(FaultSite::kSortPhase,
                        static_cast<std::uint64_t>(i), 0, 11)) {
      ++fired;
    }
  }
  const double observed = static_cast<double>(fired) / trials;
  EXPECT_NEAR(observed, 0.25, 0.03);
}

TEST(FaultInjector, FireStatusNamesSiteJobAndAttempt) {
  const Status s = FaultInjector::fire(FaultSite::kSerialize, 17, 2);
  EXPECT_EQ(s.code(), StatusCode::kFaultInjected);
  EXPECT_TRUE(s.retryable());
  EXPECT_EQ(s.message(), "injected fault at serialize (job 17, attempt 2)");
}

TEST(FaultInjector, SiteNamesAreStable) {
  EXPECT_STREQ(fault_site_name(FaultSite::kKeygen), "keygen");
  EXPECT_STREQ(fault_site_name(FaultSite::kSortPhase), "sort-phase");
  EXPECT_STREQ(fault_site_name(FaultSite::kPlannerCalibration),
               "planner-calibration");
  EXPECT_STREQ(fault_site_name(FaultSite::kQueueAdmission),
               "queue-admission");
  EXPECT_STREQ(fault_site_name(FaultSite::kSerialize), "serialize");
}

// The headline matrix test: 40 mixed jobs with every site armed. The
// service must finish the whole batch (no hung workers — replay is
// synchronous, so returning at all proves the batch drained), keep
// per-status counters consistent with the per-job results, and fire
// every in-pipeline site at least once under this seed.
TEST(FaultMatrix, FortyJobMixedRunIsIsolatedAndFullyAccounted) {
  const std::vector<JobSpec> trace = matrix_trace();
  SortService svc(faulty_config(/*workers=*/2, /*rate=*/0.08));
  const std::vector<JobResult> results = svc.replay(trace);
  ASSERT_EQ(results.size(), trace.size());

  std::uint64_t ok = 0, failed = 0, shed = 0, miss = 0;
  std::uint64_t attempts = 0, saved = 0;
  for (const JobResult& r : results) {
    attempts += r.attempts.size();
    switch (r.status) {
      case JobStatus::kOk:
        ++ok;
        if (!r.attempts.empty()) ++saved;
        EXPECT_TRUE(r.verified) << r.id;
        EXPECT_TRUE(r.final_status.ok());
        break;
      case JobStatus::kFailed:
        ++failed;
        EXPECT_FALSE(r.final_status.ok());
        EXPECT_FALSE(r.error.empty());
        break;
      case JobStatus::kShed:
        ++shed;
        EXPECT_EQ(r.final_status.code(), StatusCode::kDeadlineExceeded);
        EXPECT_EQ(r.measured_ns, 0);  // never ran
        break;
      case JobStatus::kDeadlineMiss:
        ++miss;
        EXPECT_EQ(r.final_status.code(), StatusCode::kDeadlineExceeded);
        break;
    }
  }
  // Under this seed the matrix must actually exercise the machinery.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(attempts, 0u);
  EXPECT_GT(saved, 0u);

  const Metrics::Counters c = svc.metrics().counters();
  EXPECT_EQ(c.accepted, trace.size());
  EXPECT_EQ(c.completed, ok + miss);
  EXPECT_EQ(c.failed, failed);
  EXPECT_EQ(c.shed, shed);
  EXPECT_EQ(c.deadline_miss, miss);
  EXPECT_EQ(c.retry_attempts, attempts);
  EXPECT_EQ(c.retry_successes, saved);
  EXPECT_EQ(ok + failed + shed + miss, trace.size());

  // Every in-pipeline site fired (admission faults live in submit(),
  // which replay bypasses by design — covered separately below).
  const std::vector<std::uint64_t> fired = svc.metrics().fault_counts();
  EXPECT_GT(fired[static_cast<std::size_t>(FaultSite::kKeygen)], 0u);
  EXPECT_GT(fired[static_cast<std::size_t>(FaultSite::kSortPhase)], 0u);
  EXPECT_GT(
      fired[static_cast<std::size_t>(FaultSite::kPlannerCalibration)], 0u);
  EXPECT_GT(fired[static_cast<std::size_t>(FaultSite::kSerialize)], 0u);
  EXPECT_EQ(fired[static_cast<std::size_t>(FaultSite::kQueueAdmission)], 0u);
}

TEST(FaultMatrix, ReplayWithFaultsIsByteIdenticalForAnyWorkerCount) {
  const std::vector<JobSpec> trace = matrix_trace();
  SortService one(faulty_config(1, 0.08));
  const std::string base = fingerprint(one, trace);
  EXPECT_NE(base.find("FAULT_INJECTED"), std::string::npos);
  for (const int workers : {2, 4}) {
    SortService many(faulty_config(workers, 0.08));
    EXPECT_EQ(fingerprint(many, trace), base) << "workers=" << workers;
  }
}

TEST(FaultMatrix, AdmissionFaultsRejectAtTheFrontDoor) {
  ServiceConfig cfg = faulty_config(
      1, 1.0, fault_site_bit(FaultSite::kQueueAdmission));
  SortService svc(cfg);
  Status why;
  JobSpec job;
  job.id = 0;
  job.n = 1u << 12;
  job.nprocs = 4;
  EXPECT_EQ(svc.submit(job, &why), Admission::kRejectedFault);
  EXPECT_EQ(why.code(), StatusCode::kFaultInjected);
  EXPECT_TRUE(why.retryable());  // the client may simply resubmit
  svc.drain();
  EXPECT_TRUE(svc.take_results().empty());  // the job never entered
  const Metrics::Counters c = svc.metrics().counters();
  EXPECT_EQ(c.rejected_fault, 1u);
  EXPECT_EQ(
      svc.metrics()
          .fault_counts()[static_cast<std::size_t>(
              FaultSite::kQueueAdmission)],
      1u);
}

TEST(FaultMatrix, SubmitReportsTypedAdmissionStatus) {
  ServiceConfig cfg;
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  SortService svc(cfg);  // not started: nothing drains
  Status why;
  JobSpec bad;
  bad.id = 1;
  bad.seed = 0;  // invalid
  bad.n = 0;     // invalid too: both problems in one report
  EXPECT_EQ(svc.submit(bad, &why), Admission::kRejectedInvalid);
  EXPECT_EQ(why.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(why.message().find("seed"), std::string::npos);
  EXPECT_NE(why.message().find("at least one key"), std::string::npos);

  JobSpec good;
  good.id = 2;
  good.n = 1u << 12;
  good.nprocs = 4;
  EXPECT_EQ(svc.submit(good, &why), Admission::kAccepted);
  EXPECT_TRUE(why.ok());
  JobSpec overflow = good;
  overflow.id = 3;
  EXPECT_EQ(svc.submit(overflow, &why), Admission::kRejectedFull);
  EXPECT_EQ(why.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(why.retryable());
  svc.drain();
}

// Shed vs miss: a sheddable job whose *prediction* blows the deadline is
// refused pre-run (kShed, measured_ns 0); the identical job at critical
// priority runs to completion and reports the miss instead.
TEST(Deadlines, PredictedOverrunShedsUnlessCriticalThenItMisses) {
  JobSpec impossible;
  impossible.id = 0;
  impossible.n = 1u << 13;
  impossible.nprocs = 4;
  impossible.seed = 9;
  impossible.deadline_us = 1;  // nothing sorts 8K keys in a microsecond
  JobSpec critical = impossible;
  critical.id = 1;
  critical.priority = kCriticalPriority;

  SortService svc(ServiceConfig{});
  const std::vector<JobResult> results =
      svc.replay({impossible, critical});
  ASSERT_EQ(results.size(), 2u);

  EXPECT_EQ(results[0].status, JobStatus::kShed);
  EXPECT_EQ(results[0].measured_ns, 0);
  EXPECT_NE(results[0].error.find("shed: predicted"), std::string::npos)
      << results[0].error;

  EXPECT_EQ(results[1].status, JobStatus::kDeadlineMiss);
  EXPECT_GT(results[1].measured_ns, 0);  // ran to completion
  EXPECT_TRUE(results[1].verified);
  EXPECT_NE(results[1].error.find("finished late"), std::string::npos)
      << results[1].error;

  const Metrics::Counters c = svc.metrics().counters();
  EXPECT_EQ(c.shed, 1u);
  EXPECT_EQ(c.deadline_miss, 1u);
  EXPECT_EQ(c.completed, 1u);  // the critical job completed (late)
  EXPECT_EQ(c.failed, 0u);
  // Deadline outcomes are not retryable: no attempts recorded.
  EXPECT_TRUE(results[0].attempts.empty());
  EXPECT_TRUE(results[1].attempts.empty());
}

// A job whose prediction *fits* but whose measured time does not is
// aborted cooperatively at a phase mark (virtual time, so the abort
// point is deterministic): kDeadlineMiss with no measurement. The same
// job at critical priority is never aborted: it finishes late.
TEST(Deadlines, MidRunOverrunAbortsAtAPhaseMark) {
  // Find a candidate the planner underestimates; the search is over
  // deterministic virtual times, so the pick is stable.
  Planner planner;
  JobSpec job;
  job.n = 1u << 12;
  bool found = false;
  for (std::uint64_t seed = 1; seed < 20 && !found; ++seed) {
    for (const int nprocs : {8, 4}) {
      for (const keys::Dist d :
           {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kBucket}) {
        job.seed = seed;
        job.nprocs = nprocs;
        job.dist = d;
        const Plan plan = planner.try_plan(job).value();
        sort::SortSpec spec;
        spec.algo = plan.algo;
        spec.model = plan.model;
        spec.radix_bits = plan.radix_bits;
        spec.n = job.n;
        spec.nprocs = job.nprocs;
        spec.dist = job.dist;
        spec.seed = job.seed;
        const double measured = sort::try_run_sort(spec).value().elapsed_ns;
        // Need a gap wide enough for a microsecond-granular deadline to
        // sit strictly between prediction and reality: admitted (not
        // shed), then overtaken mid-run.
        if (measured > plan.predicted_ns + 3e3) {
          job.deadline_us = static_cast<std::uint64_t>(
              (plan.predicted_ns + measured) / 2 / 1e3);
          const double deadline_ns =
              static_cast<double>(job.deadline_us) * 1e3;
          found = deadline_ns > plan.predicted_ns && deadline_ns < measured;
        }
        if (found) break;
      }
      if (found) break;
    }
  }
  ASSERT_TRUE(found) << "no underestimated job in the probe set";

  JobSpec critical = job;
  critical.id = job.id + 1;
  critical.priority = kCriticalPriority;
  SortService svc(ServiceConfig{});
  const std::vector<JobResult> results = svc.replay({job, critical});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, JobStatus::kDeadlineMiss);
  EXPECT_EQ(results[0].measured_ns, 0);  // aborted: no result to measure
  EXPECT_EQ(results[0].error.rfind("virtual deadline exceeded at '", 0), 0u)
      << results[0].error;
  EXPECT_NE(results[0].error.find("us > " + us_text(
                static_cast<double>(job.deadline_us) * 1e3)),
            std::string::npos)
      << results[0].error;

  EXPECT_EQ(results[1].status, JobStatus::kDeadlineMiss);
  EXPECT_GT(results[1].measured_ns,
            static_cast<double>(job.deadline_us) * 1e3);
  EXPECT_TRUE(results[1].verified);
  EXPECT_EQ(results[1].error.rfind("finished late", 0), 0u)
      << results[1].error;
}

TEST(Retry, BackoffScheduleIsSeededCappedAndExponential) {
  // Arm only the serialize site at rate 1: every attempt fails after the
  // sort, so the job burns all its attempts and records every backoff.
  ServiceConfig cfg = faulty_config(
      1, 1.0, fault_site_bit(FaultSite::kSerialize));
  cfg.max_attempts = 4;
  cfg.retry_backoff_base_ms = 2.0;
  cfg.retry_backoff_cap_ms = 5.0;
  JobSpec job;
  job.id = 11;
  job.n = 1u << 12;
  job.nprocs = 4;

  SortService svc(cfg);
  const std::vector<JobResult> a = svc.replay({job});
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].status, JobStatus::kFailed);
  EXPECT_EQ(a[0].final_status.code(), StatusCode::kFaultInjected);
  ASSERT_EQ(a[0].attempts.size(), 3u);  // max_attempts-1 retried failures
  for (std::size_t k = 0; k < a[0].attempts.size(); ++k) {
    const AttemptRecord& r = a[0].attempts[k];
    EXPECT_TRUE(r.retryable);
    EXPECT_NE(r.error.find("serialize"), std::string::npos);
    // Envelope: jitter scales min(cap, base*2^k) into [0.5, 1.0] of it.
    const double full = std::min(5.0, 2.0 * static_cast<double>(1u << k));
    EXPECT_GE(r.backoff_ms, 0.5 * full - 1e-12) << "attempt " << k;
    EXPECT_LE(r.backoff_ms, full + 1e-12) << "attempt " << k;
  }
  // The schedule is a pure function of (fault seed, job seed, id,
  // attempt): a second identical service reproduces it exactly.
  SortService again(cfg);
  const std::vector<JobResult> b = again.replay({job});
  ASSERT_EQ(b[0].attempts.size(), a[0].attempts.size());
  for (std::size_t k = 0; k < a[0].attempts.size(); ++k) {
    EXPECT_DOUBLE_EQ(b[0].attempts[k].backoff_ms, a[0].attempts[k].backoff_ms);
    EXPECT_EQ(b[0].attempts[k].error, a[0].attempts[k].error);
  }
}

TEST(Retry, TransientFaultIsAbsorbedAndTheJobSucceeds) {
  // Serialize-only faults at a moderate rate: some attempt eventually
  // clears, and the result records the recovery.
  ServiceConfig cfg = faulty_config(
      1, 0.5, fault_site_bit(FaultSite::kSerialize));
  cfg.max_attempts = 8;
  std::vector<JobSpec> trace;
  for (std::uint64_t id = 0; id < 8; ++id) {
    JobSpec j;
    j.id = id;
    j.n = 1u << 12;
    j.nprocs = 4;
    j.seed = id + 1;
    trace.push_back(j);
  }
  SortService svc(cfg);
  const std::vector<JobResult> results = svc.replay(trace);
  std::uint64_t recovered = 0;
  for (const JobResult& r : results) {
    if (r.status == JobStatus::kOk && !r.attempts.empty()) ++recovered;
  }
  EXPECT_GT(recovered, 0u);
  EXPECT_EQ(svc.metrics().counters().retry_successes, recovered);
}

}  // namespace
}  // namespace dsm::svc
