// Hostile-token sweep over every public decoder: the journal record, the
// snapshot, the cluster frame and the trace. One valid encoding per
// journal RecordType and per cluster MsgType, a snapshot and a trace are
// each damaged two ways: every whitespace token replaced by "bogus" in
// turn, and a cut at every byte. Each decode must return a Result without
// throwing, and every failure must carry the decoder's own typed code.
// This is the fixed-seed floor under a random byte mutator.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "cluster/frame.hpp"
#include "svc/journal.hpp"
#include "svc/snapshot.hpp"
#include "svc/trace.hpp"

namespace dsm::svc {
namespace {

template <typename T>
void sweep(const std::string& what, const std::string& good, StatusCode code,
           const std::function<Result<T>(const std::string&)>& decode) {
  ASSERT_TRUE(decode(good).ok()) << what << " fixture must decode: " << good;
  std::vector<std::string> variants;
  for (std::size_t start = good.find_first_not_of(" \n");
       start != std::string::npos;) {
    const std::size_t end = std::min(good.find_first_of(" \n", start),
                                     good.size());
    variants.push_back(good.substr(0, start) + "bogus" + good.substr(end));
    start = good.find_first_not_of(" \n", end);
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    variants.push_back(good.substr(0, len));
  }
  for (const std::string& bad : variants) {
    try {
      const Result<T> r = decode(bad);
      ASSERT_TRUE(r.ok() || r.status().code() == code)
          << what << ": " << r.status().to_string() << "\n  input: " << bad;
    } catch (const std::exception& e) {
      FAIL() << what << " threw: " << e.what() << "\n  input: " << bad;
    }
  }
}

/// Every optional field set, so each field's token is swept.
JobSpec full_job() {
  JobSpec j;
  j.id = 42;
  j.n = 4096;
  j.nprocs = 8;
  j.dist = keys::Dist::kZipf;
  j.seed = 7;
  j.force_algo = sort::Algo::kRadix;
  j.force_model = sort::Model::kShmem;
  j.force_radix_bits = 11;
  j.deadline_us = 500;
  j.priority = 1;
  j.trace_json_path = "t.json";
  j.crash_count = 1;
  j.crash_site = "execute:keygen";
  Plan& p = j.recovered_plan.emplace();
  p.predicted_raw_ns = 0.1 + 0.2;
  p.has_runner_up = true;
  p.runner_model = sort::Model::kMpi;
  j.record = keys::RecordType::kKeyPayload32;
  return j;
}

TEST(HostileDecoders, JournalRecordsReturnCorruptJournal) {
  // Every field set: the encoder writes only the fields `type` owns.
  JournalRecord r;
  r.lsn = 9;
  r.seq = 5;
  r.readmit = true;
  r.job = full_job();
  r.plan = *r.job.recovered_plan;
  r.attempt = 1;
  r.attempt_result = {"FAULT_INJECTED: keygen", true, 1.5, 2};
  r.site = "worker-1";
  r.result.status = JobStatus::kFailed;
  r.result.final_status = Status::fault_injected("keygen");
  r.result.plan = r.plan;
  r.result.attempts = {r.attempt_result};
  r.crash_count = 2;
  for (int t = 0; t < kRecordTypeCount; ++t) {
    r.type = static_cast<RecordType>(t);
    sweep<JournalRecord>(record_type_name(r.type), encode_record(r),
                         StatusCode::kCorruptJournal, decode_record);
  }
}

TEST(HostileDecoders, ClusterFramesReturnCorruptFrame) {
  // Every field set: the encoder writes only the fields `type` owns.
  cluster::WireMessage m;
  m.version = cluster::kProtocolVersion;
  m.pid = 1234;
  m.label = "worker-1";
  m.task_id = 3;
  m.job = full_job();
  m.plan = *m.job.recovered_plan;
  m.faults.rate = 0.25;
  m.check_integrity = true;
  m.expect = {4096, 11, 12, 13};
  m.site = "keygen";
  m.virtual_ns = 2.5;
  m.failure = Status::peer_dead("gone");
  m.run_hash = 99;
  for (int t = 0; t < cluster::kMsgTypeCount; ++t) {
    m.type = static_cast<cluster::MsgType>(t);
    sweep<cluster::WireMessage>(cluster::msg_type_name(m.type),
                                cluster::encode_message(m),
                                StatusCode::kCorruptFrame,
                                cluster::decode_message);
  }
}

TEST(HostileDecoders, SnapshotReturnsCorruptJournal) {
  SnapshotData s;
  s.lsn = 17;
  s.planner_cells = {{sort::Algo::kMsdRadix, sort::Model::kShmem, 0.5, 1}};
  s.metrics.latency_hist = {1, 2};
  s.metrics.rel_err_cal = {0.25};
  s.inflight = {full_job()};
  s.known_ids = {41, 42};
  sweep<SnapshotData>("snapshot", encode_snapshot(s),
                      StatusCode::kCorruptJournal, decode_snapshot);
}

TEST(HostileDecoders, TracesReturnInvalidArgument) {
  JobSpec plain;
  plain.n = 4096;
  plain.nprocs = 4;
  plain.seed = 9;
  const std::vector<JobSpec> jobs = {plain, full_job()};
  sweep<std::vector<JobSpec>>("trace", trace_to_text(jobs),
                              StatusCode::kInvalidArgument, trace_from_text);
}

}  // namespace
}  // namespace dsm::svc
