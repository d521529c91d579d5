// The record type through the service plane: the versioned journal/wire
// field (emitted only for non-u32 jobs, so every pre-existing byte
// stream decodes unchanged), cluster task frames, mixed record-type
// traces — text round trip, hostile names — and the headline contract:
// replaying a journaled mixed record-type stream is byte-identical for
// any worker count.
#include "svc/job.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/frame.hpp"
#include "common/error.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace dsm::svc {
namespace {

JobSpec kv32_job(std::uint64_t id = 3) {
  JobSpec j;
  j.id = id;
  j.n = Index{1} << 12;
  j.nprocs = 4;
  j.dist = keys::Dist::kDup;
  j.seed = 11;
  j.record = keys::RecordType::kKeyPayload32;
  return j;
}

TEST(RecordWire, SortSpecInheritsTheJobRecordNotTheProcessDefault) {
  const sort::SortSpec spec =
      sort_spec_for(kv32_job(), sort::Algo::kRadix, sort::Model::kShmem, 8);
  EXPECT_EQ(spec.record, keys::RecordType::kKeyPayload32);
  JobSpec u32 = kv32_job();
  u32.record = keys::RecordType::kU32;
  EXPECT_EQ(sort_spec_for(u32, sort::Algo::kRadix, sort::Model::kShmem, 8)
                .record,
            keys::RecordType::kU32);
}

TEST(RecordWire, JournalRoundTripsRecordType) {
  JournalRecord r;
  r.type = RecordType::kAdmit;
  r.seq = 1;
  r.job = kv32_job();
  const std::string bytes = encode_record(r);
  // The field is versioned as a trailing " rec <name>" run.
  EXPECT_NE(bytes.find(" rec kv32"), std::string::npos) << bytes;
  const JournalRecord back = decode_record(bytes).value();
  EXPECT_EQ(back.job.record, keys::RecordType::kKeyPayload32);
  EXPECT_EQ(back.job.dist, keys::Dist::kDup);
}

TEST(RecordWire, U32JobsEncodeWithoutTheFieldForByteCompat) {
  // The implicit record type of every pre-PR journal is u32; a u32 job
  // must encode to the exact pre-PR bytes (no " rec " run), which is
  // also what makes old journals decode unchanged.
  JournalRecord r;
  r.type = RecordType::kAdmit;
  r.seq = 2;
  r.job = kv32_job();
  r.job.record = keys::RecordType::kU32;
  const std::string bytes = encode_record(r);
  EXPECT_EQ(bytes.find(" rec "), std::string::npos) << bytes;
  EXPECT_EQ(decode_record(bytes).value().job.record, keys::RecordType::kU32);
}

TEST(RecordWire, UnknownRecordNameIsCorruptJournal) {
  JournalRecord r;
  r.type = RecordType::kAdmit;
  r.job = kv32_job();
  std::string bytes = encode_record(r);
  const std::size_t at = bytes.find("rec kv32");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 8, "rec kv99");
  const Result<JournalRecord> back = decode_record(bytes);
  ASSERT_FALSE(back.ok()) << "corrupt record name must not decode";
  EXPECT_EQ(back.status().code(), StatusCode::kCorruptJournal);
  EXPECT_NE(back.status().message().find("kv99"), std::string::npos)
      << back.status().message();
}

TEST(RecordWire, ClusterTaskFrameCarriesTheRecord) {
  // A task frame is put_job followed by put_plan in one record — the
  // trailing " rec" run must not be mistaken for (or swallow) the plan.
  cluster::WireMessage m;
  m.type = cluster::MsgType::kTask;
  m.task_id = 9;
  m.job = kv32_job();
  m.plan.algo = sort::Algo::kSample;
  m.plan.model = sort::Model::kMpi;
  m.plan.radix_bits = 11;
  const Result<cluster::WireMessage> back =
      cluster::decode_message(cluster::encode_message(m));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back.value().job.record, keys::RecordType::kKeyPayload32);
  EXPECT_EQ(back.value().plan.algo, sort::Algo::kSample);
  EXPECT_EQ(back.value().plan.radix_bits, 11);
  // And a u32 task frame stays free of the field.
  m.job.record = keys::RecordType::kU32;
  const std::string bytes = cluster::encode_message(m);
  EXPECT_EQ(bytes.find(" rec "), std::string::npos);
  EXPECT_EQ(cluster::decode_message(bytes).value().plan.radix_bits, 11);
}

TEST(RecordTrace, MixedTraceDrawsBothTypesDeterministically) {
  LoadMix mix;
  mix.sizes = {1u << 12};
  mix.procs = {4};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kZipf};
  mix.records = {keys::RecordType::kU32, keys::RecordType::kKeyPayload32};
  const std::vector<JobSpec> trace = make_trace(5, 24, mix);
  std::size_t kv = 0;
  for (const JobSpec& j : trace) {
    kv += j.record == keys::RecordType::kKeyPayload32 ? 1 : 0;
  }
  EXPECT_GT(kv, 0u);
  EXPECT_LT(kv, trace.size());
  // Determinism: same seed, same draw sequence.
  const std::vector<JobSpec> again = make_trace(5, 24, mix);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].record, again[i].record) << i;
    EXPECT_EQ(trace[i].seed, again[i].seed) << i;
  }
}

TEST(RecordTrace, DefaultMixWritesTheU32RecordColumn) {
  // The trace grammar is fixed-width: even the default LoadMix (records =
  // {u32}) writes all 11 columns, the last naming the record type.
  LoadMix mix;
  mix.sizes = {1u << 12};
  mix.procs = {4};
  const std::string text = trace_to_text(make_trace(7, 6, mix));
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string f;
    int count = 0;
    while (fields >> f) ++count;
    EXPECT_EQ(count, 11) << line;
    EXPECT_EQ(f, "u32") << line;
  }
}

TEST(RecordTrace, TextRoundTripsRecordColumn) {
  LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4};
  mix.dists = {keys::Dist::kDup, keys::Dist::kRandom};
  mix.records = {keys::RecordType::kU32, keys::RecordType::kKeyPayload32};
  const std::vector<JobSpec> trace = make_trace(13, 16, mix);
  const std::string text = trace_to_text(trace);
  EXPECT_NE(text.find(" kv32"), std::string::npos);
  const std::vector<JobSpec> back = trace_from_text(text).value();
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].record, trace[i].record) << i;
    EXPECT_EQ(back[i].n, trace[i].n) << i;
    EXPECT_EQ(back[i].dist, trace[i].dist) << i;
  }
  // The rendering itself round-trips byte-identically.
  EXPECT_EQ(trace_to_text(back), text);
}

TEST(RecordTrace, HostileRecordNamesAreRejectedWithTheLineNumber) {
  const auto parse = [](const std::string& line) {
    return trace_from_text("# header\n" + line + "\n");
  };
  // A bad record name names the offender and the accepted values.
  const Result<std::vector<JobSpec>> bad =
      parse("0 4096 4 gauss 7 - - - - 0 kv99");
  ASSERT_FALSE(bad.ok()) << "unknown record name must not parse";
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const std::string msg = bad.status().message();
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("kv99"), std::string::npos) << msg;
  EXPECT_NE(msg.find("u32"), std::string::npos) << msg;
  EXPECT_FALSE(parse("0 4096 4 gauss 7 - - - - 0 KV32").ok());
  EXPECT_FALSE(parse("0 4096 4 gauss 7 - - - - 0 kv32 extra").ok());
  // The columns are positional: the record cannot skip the
  // deadline/priority columns.
  EXPECT_FALSE(parse("0 4096 4 gauss 7 - - - kv32").ok());
  // The happy path parses ('-' deadline means none).
  const std::vector<JobSpec> good =
      parse("0 4096 4 gauss 7 - - - - 0 kv32").value();
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0].record, keys::RecordType::kKeyPayload32);
  EXPECT_EQ(good[0].deadline_us, 0u);
}

ServiceConfig small_config(int workers) {
  ServiceConfig cfg;
  cfg.queue_capacity = 16;
  cfg.max_batch = 4;
  cfg.workers = workers;
  return cfg;
}

std::string replay_fingerprint(SortService& svc,
                               const std::vector<JobSpec>& trace) {
  std::string out;
  for (const JobResult& r : svc.replay(trace)) {
    out += r.to_json();
    out += '\n';
  }
  out += svc.metrics().to_json();
  return out;
}

TEST(RecordReplay, MixedRecordStreamIsByteIdenticalForAnyWorkerCount) {
  // The service determinism contract extended to the record axis: a
  // trace interleaving u32 and kv32 jobs (and skewed distributions)
  // replays byte-identically for any worker count — the kv32 payload
  // mirror must not perturb any charged time or planner decision.
  LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kZipf, keys::Dist::kDup,
               keys::Dist::kAdversarial};
  mix.records = {keys::RecordType::kU32, keys::RecordType::kKeyPayload32};
  const std::vector<JobSpec> trace = make_trace(42, 10, mix);
  SortService one(small_config(1));
  const std::string base = replay_fingerprint(one, trace);
  EXPECT_NE(base.find("\"status\": \"ok\""), std::string::npos);
  for (const int workers : {2, 4}) {
    SortService many(small_config(workers));
    EXPECT_EQ(replay_fingerprint(many, trace), base) << "workers=" << workers;
  }
}

TEST(RecordReplay, Kv32JobsChargeExactlyWhatU32JobsCharge) {
  // Two identical traces differing only in record type: every measured
  // virtual time must match (the record-oblivious charging contract at
  // service granularity).
  LoadMix mix;
  mix.sizes = {1u << 12};
  mix.procs = {4};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kDup};
  std::vector<JobSpec> u32_trace = make_trace(3, 6, mix);
  std::vector<JobSpec> kv_trace = u32_trace;
  for (JobSpec& j : kv_trace) j.record = keys::RecordType::kKeyPayload32;
  SortService a(small_config(2));
  SortService b(small_config(2));
  const std::vector<JobResult> ru = a.replay(u32_trace);
  const std::vector<JobResult> rk = b.replay(kv_trace);
  ASSERT_EQ(ru.size(), rk.size());
  for (std::size_t i = 0; i < ru.size(); ++i) {
    EXPECT_EQ(ru[i].status, JobStatus::kOk) << ru[i].error;
    EXPECT_EQ(rk[i].status, JobStatus::kOk) << rk[i].error;
    EXPECT_EQ(ru[i].measured_ns, rk[i].measured_ns) << i;
    EXPECT_TRUE(rk[i].verified) << i;
  }
}

TEST(RecordJob, ValidationBoundsPayloadIndexWidth) {
  JobSpec j = kv32_job();
  j.n = (Index{1} << 32) + 1;
  j.nprocs = 64;
  const Status s = j.validate_status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("2^32"), std::string::npos) << s.message();
  j.record = keys::RecordType::kU32;
  EXPECT_TRUE(j.validate_status().ok());
}

}  // namespace
}  // namespace dsm::svc
