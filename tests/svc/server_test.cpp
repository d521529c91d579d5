// SortService end-to-end: replay determinism across worker counts (the
// service's headline contract), per-job error isolation, live-mode
// submit/drain, and admission control under pressure.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "sort/radix_parallel.hpp"
#include "sort/record_share.hpp"
#include "sort/sample_parallel.hpp"
#include "svc/trace.hpp"

namespace dsm::svc {
namespace {

JobSpec small_job(std::uint64_t id, Index n = 4096, int nprocs = 4) {
  JobSpec j;
  j.id = id;
  j.n = n;
  j.nprocs = nprocs;
  j.dist = keys::Dist::kGauss;
  j.seed = 2 * id + 1;
  return j;
}

ServiceConfig small_config(int workers) {
  ServiceConfig cfg;
  cfg.queue_capacity = 16;
  cfg.max_batch = 4;
  cfg.workers = workers;
  cfg.audit_every = 3;
  return cfg;
}

std::vector<JobSpec> small_trace(std::size_t count) {
  LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kBucket,
               keys::Dist::kRemote};
  return make_trace(99, count, mix);
}

// Everything deterministic the service produced, as one string.
std::string replay_fingerprint(SortService& svc,
                               const std::vector<JobSpec>& trace) {
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

TEST(SortService, ReplayIsByteIdenticalForAnyWorkerCount) {
  const std::vector<JobSpec> trace = small_trace(10);
  SortService one(small_config(1));
  const std::string base = replay_fingerprint(one, trace);
  EXPECT_NE(base.find("\"status\": \"ok\""), std::string::npos);
  for (const int workers : {2, 4}) {
    SortService many(small_config(workers));
    EXPECT_EQ(replay_fingerprint(many, trace), base)
        << "workers=" << workers;
  }
}

TEST(SortService, ReplayReturnsResultsInTraceOrderAndCalibrates) {
  const std::vector<JobSpec> trace = small_trace(8);
  SortService svc(small_config(2));
  const std::vector<JobResult> results = svc.replay(trace);
  ASSERT_EQ(results.size(), trace.size());
  std::uint64_t total_obs = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, trace[i].id);
    EXPECT_EQ(results[i].status, JobStatus::kOk) << results[i].error;
    EXPECT_TRUE(results[i].verified);
    EXPECT_GT(results[i].measured_ns, 0);
    EXPECT_EQ(results[i].host_latency_ms, 0);  // replay: no host clock
  }
  for (const auto& ae : sort::kAlgoNames) {
    for (const auto& me : sort::kModelNames) {
      total_obs += svc.planner().observations(ae.value, me.value);
    }
  }
  EXPECT_EQ(total_obs, trace.size());  // every success feeds calibration
  // audit_every=3 with sequence numbers 0..7 audits seqs 0, 3, 6.
  EXPECT_EQ(svc.metrics().counters().audited, 3u);
}

/// Whether a sort of `spec` would record afresh: no record of its kind
/// is retained for it. A probe that records evicts the retained record of
/// its kind, and drops its own empty record again.
bool records_afresh(const sort::SortSpec& spec) {
  bool built = false;
  const auto probe = [&]<typename Rec>(Rec) {
    (void)sort::shared_record<Rec>(spec, [&] {
      built = true;
      return Rec{};
    });
  };
  if (spec.algo == sort::Algo::kRadix) {
    probe(sort::LsdRecord{});
  } else {
    probe(sort::SampleRecord{});
  }
  sort::release_retained_records(spec);
  return built;
}

// A job's shared records go with it (DESIGN.md §5.3): neither its run's
// nor its audit's stays resident until a later job's record evicts it.
TEST(SortService, FinishedJobsLeaveNoRecordsRetained) {
  const std::vector<JobSpec> trace = small_trace(3);
  ServiceConfig cfg = small_config(1);
  cfg.audit_every = 1;
  SortService svc(cfg);
  const std::vector<JobResult> results = svc.replay(trace);
  ASSERT_EQ(results.size(), trace.size());
  // One worker runs the jobs in order, so the last job's audit and run
  // started the most recent records. Probe the audit's first, as probing
  // the run's could evict it.
  const JobResult& last = results.back();
  ASSERT_EQ(last.status, JobStatus::kOk) << last.error;
  ASSERT_TRUE(last.audited);
  const Plan& plan = last.plan;
  EXPECT_TRUE(records_afresh(sort_spec_for(trace.back(), plan.runner_algo,
                                           plan.runner_model,
                                           plan.runner_radix_bits)));
  EXPECT_TRUE(records_afresh(
      sort_spec_for(trace.back(), plan.algo, plan.model, plan.radix_bits)));
}

TEST(SortService, PoisonedJobsFailAloneWhileTheRestComplete) {
  std::vector<JobSpec> trace;
  trace.push_back(small_job(0));
  // Fails at planning: sample sort cannot run on the radix-only model.
  JobSpec bad_plan = small_job(1);
  bad_plan.force_algo = sort::Algo::kSample;
  bad_plan.force_model = sort::Model::kCcSasNew;
  trace.push_back(bad_plan);
  // Fails at execution: the per-job trace sink is unwritable.
  JobSpec bad_run = small_job(2);
  bad_run.trace_json_path = "/nonexistent-dir-dsmsort/trace.json";
  trace.push_back(bad_run);
  trace.push_back(small_job(3));

  SortService svc(small_config(2));
  const std::vector<JobResult> results = svc.replay(trace);
  ASSERT_EQ(results.size(), 4u);

  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[3].status, JobStatus::kOk);

  EXPECT_EQ(results[1].status, JobStatus::kFailed);
  EXPECT_NE(results[1].error.find("no feasible plan"), std::string::npos)
      << results[1].error;
  EXPECT_EQ(results[2].status, JobStatus::kFailed);
  EXPECT_NE(results[2].error.find("trace"), std::string::npos)
      << results[2].error;

  const Metrics::Counters c = svc.metrics().counters();
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.failed, 2u);
  EXPECT_EQ(svc.queue().depth(), 0u);  // drained cleanly
  // Failures carry their error in JSON instead of plan/measurement.
  EXPECT_NE(results[1].to_json().find("\"error\": "), std::string::npos);
}

TEST(SortService, LiveModeServesSubmittedJobsUntilDrain) {
  SortService svc(small_config(2));
  svc.start();
  for (std::uint64_t id = 0; id < 6; ++id) {
    EXPECT_EQ(svc.submit(small_job(id)), Admission::kAccepted);
  }
  svc.drain();
  const std::vector<JobResult> results = svc.take_results();
  ASSERT_EQ(results.size(), 6u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
    EXPECT_GT(r.host_latency_ms, 0);  // live mode stamps the host clock
  }
  // After drain the service only answers "closed".
  EXPECT_EQ(svc.submit(small_job(99)), Admission::kRejectedClosed);
  const Metrics::Counters c = svc.metrics().counters();
  EXPECT_EQ(c.accepted, 6u);
  EXPECT_EQ(c.completed, 6u);
  EXPECT_EQ(c.rejected_closed, 1u);
}

TEST(SortService, FullQueueAppliesBackpressure) {
  ServiceConfig cfg = small_config(1);
  cfg.queue_capacity = 2;
  cfg.max_batch = 2;
  SortService svc(cfg);  // not started: nothing drains the queue yet
  EXPECT_EQ(svc.submit(small_job(0)), Admission::kAccepted);
  EXPECT_EQ(svc.submit(small_job(1)), Admission::kAccepted);
  EXPECT_EQ(svc.submit(small_job(2)), Admission::kRejectedFull);
  svc.drain();  // inline drain still processes the admitted jobs
  EXPECT_EQ(svc.take_results().size(), 2u);
  const Metrics::Counters c = svc.metrics().counters();
  EXPECT_EQ(c.rejected_full, 1u);
  EXPECT_EQ(c.completed, 2u);
}

TEST(SortService, InvalidJobsAreRejectedAtAdmission) {
  SortService svc(small_config(1));
  JobSpec j = small_job(0);
  j.seed = 0;
  EXPECT_EQ(svc.submit(j), Admission::kRejectedInvalid);
  JobSpec tiny = small_job(1);
  tiny.n = 2;
  tiny.nprocs = 4;  // fewer keys than processes
  EXPECT_EQ(svc.submit(tiny), Admission::kRejectedInvalid);
  EXPECT_EQ(svc.metrics().counters().rejected_invalid, 2u);
  svc.drain();
}

TEST(SortService, DrainIsIdempotent) {
  SortService svc(small_config(2));
  svc.start();
  for (std::uint64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(svc.submit(small_job(id)), Admission::kAccepted);
  }
  svc.drain();
  const std::size_t completed = svc.take_results().size();
  EXPECT_EQ(completed, 4u);
  // A second (and third) drain is a no-op: no crash, no double-join, no
  // extra results, counters untouched.
  svc.drain();
  svc.drain();
  EXPECT_TRUE(svc.take_results().empty());
  EXPECT_EQ(svc.metrics().counters().completed, 4u);
}

TEST(SortService, SubmitAfterDrainIsRejectedClosedForever) {
  SortService svc(small_config(1));
  svc.drain();  // never started; inline drain of an empty queue
  for (int i = 0; i < 3; ++i) {
    Status why;
    EXPECT_EQ(svc.submit(small_job(7), &why), Admission::kRejectedClosed);
    EXPECT_EQ(why.code(), StatusCode::kUnavailable);
  }
  svc.drain();  // idempotent after the rejects too
  EXPECT_EQ(svc.metrics().counters().rejected_closed, 3u);
  EXPECT_EQ(svc.metrics().counters().completed, 0u);
}

TEST(SortService, DiskFaultsDegradeDurabilityButTheServiceKeepsServing) {
  // ENOSPC-grade disk trouble on the WAL (DESIGN.md §12): the durable
  // service must keep computing and acking results, count the degraded
  // appends, and mark the affected batches' jobs non-durable in Metrics
  // — never crash, never refuse the jobs.
  const std::string dir =
      ::testing::TempDir() + "/dsm_server_degraded";
  std::ostringstream rm;
  rm << "rm -rf '" << dir << "'";
  ASSERT_EQ(std::system(rm.str().c_str()), 0);

  ServiceConfig cfg = small_config(1);
  cfg.durability.dir = dir;
  SortService svc(cfg);  // journal opens fine: the disk is still healthy

  FsFaultConfig faults;
  faults.seed = 9;
  faults.rate = 1.0;  // every WAL write/fsync now fails
  set_fs_fault_config(faults);
  for (std::uint64_t id = 0; id < 4; ++id) {
    Status why;
    ASSERT_EQ(svc.submit(small_job(id), &why), Admission::kAccepted)
        << why.to_string();
  }
  svc.drain();
  set_fs_fault_config(FsFaultConfig{});

  const std::vector<JobResult> results = svc.take_results();
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  }
  const Metrics::DiskHealth dh = svc.metrics().disk_health();
  EXPECT_GT(dh.degraded_appends, 0u);
  EXPECT_EQ(dh.non_durable_jobs, 4u);  // every job rode a degraded batch
  EXPECT_NE(svc.metrics().disk_json().find("\"degraded_appends\""),
            std::string::npos);
}

TEST(SortService, ConfigIsValidated) {
  ServiceConfig batch_too_big;
  batch_too_big.queue_capacity = 2;
  batch_too_big.max_batch = 4;
  EXPECT_THROW(SortService{batch_too_big}, Error);
}

}  // namespace
}  // namespace dsm::svc
