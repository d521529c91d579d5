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

/// `good` with its `index`-th space-separated token replaced by `token`.
std::string with_token(const std::string& good, std::size_t index,
                       const std::string& token) {
  std::size_t start = good.find_first_not_of(' ');
  for (std::size_t i = 0; i < index; ++i) {
    start = good.find_first_not_of(' ', good.find(' ', start));
  }
  const std::size_t end = std::min(good.find(' ', start), good.size());
  return good.substr(0, start) + token + good.substr(end);
}

template <typename T>
void expect_rejected(const std::string& bad, StatusCode code,
                     const std::function<Result<T>(const std::string&)>& decode) {
  const Result<T> r = decode(bad);
  ASSERT_FALSE(r.ok()) << "must not decode: " << bad;
  EXPECT_EQ(r.status().code(), code) << r.status().to_string();
}

TEST(HostileDecoders, IntegersParseWholeIntoTheirFieldType) {
  // Every integer token is parsed whole into its field's own type: no
  // sign wrap into an unsigned field, no truncation into an int field,
  // no '+' prefix. The fixtures are CRC-valid payloads a hostile peer or
  // a damaged disk could still deliver.
  const std::function<Result<JournalRecord>(const std::string&)> journal =
      decode_record;
  JournalRecord start;
  start.lsn = 9;
  start.type = RecordType::kAttemptStart;
  start.seq = 5;
  start.attempt = 1;
  const std::string rec = encode_record(start);  // lsn type seq attempt
  ASSERT_TRUE(decode_record(rec).ok()) << rec;
  expect_rejected(with_token(rec, 0, "-1"), StatusCode::kCorruptJournal,
                  journal);
  expect_rejected(with_token(rec, 2, "+7"), StatusCode::kCorruptJournal,
                  journal);
  expect_rejected(with_token(rec, 3, "4294967297"),
                  StatusCode::kCorruptJournal, journal);

  const std::function<Result<cluster::WireMessage>(const std::string&)>
      frame = cluster::decode_message;
  cluster::WireMessage done;
  done.type = cluster::MsgType::kDone;
  done.task_id = 3;
  done.passes = 4;
  done.fired_site = -1;
  const std::string msg = cluster::encode_message(done);  // type task ok ns passes
  const Result<cluster::WireMessage> back = cluster::decode_message(msg);
  ASSERT_TRUE(back.ok()) << msg;
  EXPECT_EQ(back->fired_site, -1);  // encoders write -1 for "no site"
  expect_rejected(with_token(msg, 1, "-1"), StatusCode::kCorruptFrame, frame);
  expect_rejected(with_token(msg, 1, "+7"), StatusCode::kCorruptFrame, frame);
  expect_rejected(with_token(msg, 4, "4294967297"), StatusCode::kCorruptFrame,
                  frame);

  const std::function<Result<SnapshotData>(const std::string&)> snapshot =
      decode_snapshot;
  SnapshotData snap;
  snap.lsn = 17;
  const std::string blob = encode_snapshot(snap);  // magic lsn next_seq ...
  ASSERT_TRUE(decode_snapshot(blob).ok());
  expect_rejected(with_token(blob, 1, "-1"), StatusCode::kCorruptJournal,
                  snapshot);
  expect_rejected(with_token(blob, 2, "+7"), StatusCode::kCorruptJournal,
                  snapshot);

  JournalRecord terminal;
  terminal.type = RecordType::kTerminal;
  terminal.result.final_fault_site = -1;
  const Result<JournalRecord> t = decode_record(encode_record(terminal));
  ASSERT_TRUE(t.ok()) << t.status().to_string();
  EXPECT_EQ(t->result.final_fault_site, -1);

  const std::function<Result<std::vector<JobSpec>>(const std::string&)>
      trace = trace_from_text;
  const std::string line = "0 1024 4 gauss 7 - - - - 0 u32\n";
  ASSERT_TRUE(trace_from_text(line).ok());
  expect_rejected(with_token(line, 1, "-1024"), StatusCode::kInvalidArgument,
                  trace);
  expect_rejected(with_token(line, 2, "4294967300"),
                  StatusCode::kInvalidArgument, trace);
  expect_rejected(with_token(line, 4, "+7"), StatusCode::kInvalidArgument,
                  trace);
}

}  // namespace
}  // namespace dsm::svc
