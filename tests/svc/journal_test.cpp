// Write-ahead journal: record codec round-trips, CRC framing, segment
// rotation/pruning, and the two damage modes recovery must distinguish —
// a torn tail (benign: the record was never acknowledged) vs a corrupt
// record mid-file (framing past it is untrustworthy; reading stops).
#include "svc/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/fsio.hpp"
#include "common/status.hpp"
#include "svc/wire.hpp"

namespace dsm::svc {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Tests create distinct names per case; the writer mkdirs as needed.
  return dir;
}

JobSpec sample_job() {
  JobSpec j;
  j.id = 42;
  j.n = Index{1} << 12;
  j.nprocs = 8;
  j.dist = keys::Dist::kZero;
  j.seed = 7;
  j.force_algo = sort::Algo::kSample;
  j.deadline_us = 1234;
  j.priority = 2;
  j.trace_json_path = "out dir/with \"quotes\"\n.json";
  j.svc_seq = 5;
  return j;
}

Plan sample_plan() {
  Plan p;
  p.algo = sort::Algo::kSample;
  p.model = sort::Model::kMpi;
  p.radix_bits = 11;
  p.predicted_raw_ns = 0.1 + 0.2;  // not representable in decimal
  p.predicted_ns = 12345.6789e-3;
  p.has_runner_up = true;
  p.runner_algo = sort::Algo::kRadix;
  p.runner_model = sort::Model::kCcSas;
  p.runner_radix_bits = 8;
  p.runner_predicted_ns = 1.0 / 3.0;
  return p;
}

TEST(JournalCodec, AdmitRoundTripsFullSpec) {
  JournalRecord r;
  r.lsn = 9;
  r.type = RecordType::kAdmit;
  r.seq = 5;
  r.job = sample_job();
  const JournalRecord back = decode_record(encode_record(r)).value();
  EXPECT_EQ(back.lsn, 9u);
  EXPECT_EQ(back.type, RecordType::kAdmit);
  EXPECT_EQ(back.seq, 5u);
  EXPECT_FALSE(back.readmit);
  EXPECT_EQ(back.job.id, 42u);
  EXPECT_EQ(back.job.n, Index{1} << 12);
  EXPECT_EQ(back.job.nprocs, 8);
  EXPECT_EQ(back.job.dist, keys::Dist::kZero);
  EXPECT_EQ(back.job.seed, 7u);
  ASSERT_TRUE(back.job.force_algo.has_value());
  EXPECT_EQ(*back.job.force_algo, sort::Algo::kSample);
  EXPECT_FALSE(back.job.force_model.has_value());
  EXPECT_FALSE(back.job.force_radix_bits.has_value());
  EXPECT_EQ(back.job.deadline_us, 1234u);
  EXPECT_EQ(back.job.priority, 2);
  EXPECT_EQ(back.job.trace_json_path, "out dir/with \"quotes\"\n.json");
  EXPECT_EQ(back.job.svc_seq, 5u);  // restored from the record seq
  EXPECT_EQ(back.job.host_submit_s, 0.0);  // host time is not durable
}

TEST(JournalCodec, ReadmitCarriesCrashBookkeepingAndPlan) {
  JournalRecord r;
  r.type = RecordType::kAdmit;
  r.seq = 3;
  r.readmit = true;
  r.job = sample_job();
  r.job.crash_count = 1;
  r.job.crash_site = "execute:local sort";
  r.job.recovered_plan = sample_plan();
  const JournalRecord back = decode_record(encode_record(r)).value();
  EXPECT_TRUE(back.readmit);
  EXPECT_EQ(back.job.crash_count, 1);
  EXPECT_EQ(back.job.crash_site, "execute:local sort");
  ASSERT_TRUE(back.job.recovered_plan.has_value());
  EXPECT_EQ(back.job.recovered_plan->radix_bits, 11);
  EXPECT_EQ(back.job.recovered_plan->predicted_ns,
            sample_plan().predicted_ns);
}

TEST(JournalCodec, PlannedRoundTripsPlanBitExactly) {
  JournalRecord r;
  r.type = RecordType::kPlanned;
  r.seq = 1;
  r.plan = sample_plan();
  const JournalRecord back = decode_record(encode_record(r)).value();
  const Plan& p = back.plan;
  const Plan want = sample_plan();
  EXPECT_EQ(p.algo, want.algo);
  EXPECT_EQ(p.model, want.model);
  EXPECT_EQ(p.radix_bits, want.radix_bits);
  // Hexfloat encoding: doubles survive the text round trip bit-exactly.
  EXPECT_EQ(p.predicted_raw_ns, want.predicted_raw_ns);
  EXPECT_EQ(p.predicted_ns, want.predicted_ns);
  ASSERT_TRUE(p.has_runner_up);
  EXPECT_EQ(p.runner_algo, want.runner_algo);
  EXPECT_EQ(p.runner_model, want.runner_model);
  EXPECT_EQ(p.runner_radix_bits, want.runner_radix_bits);
  EXPECT_EQ(p.runner_predicted_ns, want.runner_predicted_ns);
}

TEST(JournalCodec, AttemptRecordsRoundTrip) {
  JournalRecord s;
  s.type = RecordType::kAttemptStart;
  s.seq = 2;
  s.attempt = 1;
  EXPECT_EQ(decode_record(encode_record(s)).value().attempt, 1);

  JournalRecord m;
  m.type = RecordType::kMark;
  m.seq = 2;
  m.site = "local sort p3";
  EXPECT_EQ(decode_record(encode_record(m)).value().site, "local sort p3");

  JournalRecord a;
  a.type = RecordType::kAttemptResult;
  a.seq = 2;
  a.attempt = 0;
  a.attempt_result = {"FAULT_INJECTED: site \"keygen\"\nfor job", true,
                      1.5, 2};
  const JournalRecord back = decode_record(encode_record(a)).value();
  EXPECT_EQ(back.attempt_result.error, a.attempt_result.error);
  EXPECT_TRUE(back.attempt_result.retryable);
  EXPECT_EQ(back.attempt_result.backoff_ms, 1.5);
  EXPECT_EQ(back.attempt_result.fault_site, 2);
}

TEST(JournalCodec, TerminalRoundTripsResultAndAttempts) {
  JournalRecord r;
  r.type = RecordType::kTerminal;
  r.seq = 4;
  r.result.id = 42;
  r.result.status = JobStatus::kFailed;
  r.result.error = "it broke: \"badly\"";
  r.result.final_status = Status::fault_injected("site keygen");
  r.result.attempts.push_back({"FAULT_INJECTED: x", true, 0.75, 0});
  r.result.attempts.push_back({"IO_ERROR: y", true, 1.25, -1});
  r.result.plan = sample_plan();
  r.result.measured_ns = 98765.4321;
  r.result.passes = 3;
  r.result.verified = true;
  r.result.audited = true;
  r.result.runner_measured_ns = 111222.25;
  r.result.plan_hit = true;
  r.result.final_fault_site = 1;
  const JournalRecord back = decode_record(encode_record(r)).value();
  EXPECT_EQ(back.result.id, 42u);
  EXPECT_EQ(back.result.status, JobStatus::kFailed);
  EXPECT_EQ(back.result.error, r.result.error);
  EXPECT_EQ(back.result.final_status.code(), StatusCode::kFaultInjected);
  EXPECT_EQ(back.result.final_status.message(), "site keygen");
  EXPECT_TRUE(back.result.final_status.retryable());
  ASSERT_EQ(back.result.attempts.size(), 2u);
  EXPECT_EQ(back.result.attempts[0].error, "FAULT_INJECTED: x");
  EXPECT_EQ(back.result.attempts[0].fault_site, 0);
  EXPECT_EQ(back.result.attempts[1].backoff_ms, 1.25);
  EXPECT_EQ(back.result.measured_ns, 98765.4321);
  EXPECT_EQ(back.result.passes, 3);
  EXPECT_TRUE(back.result.verified);
  EXPECT_TRUE(back.result.audited);
  EXPECT_EQ(back.result.runner_measured_ns, 111222.25);
  EXPECT_TRUE(back.result.plan_hit);
  EXPECT_EQ(back.result.final_fault_site, 1);
  EXPECT_EQ(back.result.plan.radix_bits, 11);
}

TEST(JournalCodec, QuarantineRoundTrips) {
  JournalRecord r;
  r.type = RecordType::kQuarantine;
  r.seq = 6;
  r.job = sample_job();
  r.crash_count = 2;
  r.site = "execute:keygen";
  const JournalRecord back = decode_record(encode_record(r)).value();
  EXPECT_EQ(back.crash_count, 2);
  EXPECT_EQ(back.site, "execute:keygen");
  EXPECT_EQ(back.job.id, 42u);
}

TEST(JournalCodec, MalformedPayloadThrowsCorruptJournal) {
  // The decoder returns the damage as a typed status; nothing is thrown.
  for (const std::string bad : {"17 bogus-type 1", "", "not-a-number admit"}) {
    const Result<JournalRecord> r = decode_record(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptJournal) << bad;
  }
}

TEST(JournalCodec, RecordTypeNamesRoundTrip) {
  for (int i = 0; i < kRecordTypeCount; ++i) {
    const RecordType t = static_cast<RecordType>(i);
    EXPECT_EQ(record_type_from_name(record_type_name(t)).value(), t);
  }
}

TEST(JournalWriter, AppendAndReadBack) {
  const std::string dir = fresh_dir("jw_append");
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = false;  // in-process test: ordering is enough
  {
    JournalWriter w(cfg, 0);
    for (int i = 0; i < 5; ++i) {
      JournalRecord r;
      r.type = RecordType::kAttemptStart;
      r.seq = static_cast<std::uint64_t>(i);
      r.attempt = i;
      EXPECT_EQ(w.append(r), static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(w.next_lsn(), 5u);
  }
  const std::vector<std::string> segs = list_segments(dir);
  ASSERT_EQ(segs.size(), 1u);
  const SegmentScan scan = read_segment(segs[0]);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt, 0u);
  ASSERT_EQ(scan.records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.records[i].lsn, static_cast<std::uint64_t>(i));
    EXPECT_EQ(scan.records[i].attempt, i);
  }
}

TEST(JournalWriter, RotateStartsNewSegmentAtNextLsn) {
  const std::string dir = fresh_dir("jw_rotate");
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = false;
  JournalWriter w(cfg, 10);
  JournalRecord r;
  r.type = RecordType::kMark;
  r.site = "a";
  w.append(r);
  w.append(r);
  w.rotate();
  w.append(r);
  const std::vector<std::string> segs = list_segments(dir);
  ASSERT_EQ(segs.size(), 2u);
  const SegmentScan s0 = read_segment(segs[0]);
  const SegmentScan s1 = read_segment(segs[1]);
  ASSERT_EQ(s0.records.size(), 2u);
  EXPECT_EQ(s0.records[0].lsn, 10u);
  ASSERT_EQ(s1.records.size(), 1u);
  EXPECT_EQ(s1.records[0].lsn, 12u);
  // Pruning below the second segment's first LSN removes only the first.
  prune_segments(dir, 12);
  EXPECT_EQ(list_segments(dir).size(), 1u);
  EXPECT_EQ(read_segment(list_segments(dir)[0]).records[0].lsn, 12u);
}

TEST(JournalReader, TornTailIsToleratedAndValidPrefixKept) {
  const std::string dir = fresh_dir("jw_torn");
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = false;
  {
    JournalWriter w(cfg, 0);
    JournalRecord r;
    r.type = RecordType::kMark;
    r.site = "phase";
    w.append(r);
    w.append(r);
  }
  const std::string seg = list_segments(dir)[0];
  Result<std::string> bytes = try_read_file(seg);
  ASSERT_TRUE(bytes.ok());
  // Cut the last record in half: the classic mid-write crash scar.
  const std::string torn = bytes->substr(0, bytes->size() - 7);
  {
    std::ofstream out(seg, std::ios::trunc | std::ios::binary);
    out << torn;
  }
  const SegmentScan scan = read_segment(seg);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt, 0u);
  ASSERT_EQ(scan.records.size(), 1u);  // the valid prefix survives
  EXPECT_EQ(scan.records[0].lsn, 0u);
}

TEST(JournalReader, BitFlippedCrcStopsScanAsCorrupt) {
  const std::string dir = fresh_dir("jw_flip");
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = false;
  {
    JournalWriter w(cfg, 0);
    JournalRecord r;
    r.type = RecordType::kMark;
    r.site = "phase";
    w.append(r);  // lsn 0 — will be damaged
    w.append(r);  // lsn 1 — unreachable past the damage
  }
  const std::string seg = list_segments(dir)[0];
  Result<std::string> bytes = try_read_file(seg);
  ASSERT_TRUE(bytes.ok());
  std::string flipped = *bytes;
  flipped[9] = static_cast<char>(flipped[9] ^ 0x40);  // payload bit flip
  {
    std::ofstream out(seg, std::ios::trunc | std::ios::binary);
    out << flipped;
  }
  const SegmentScan scan = read_segment(seg);
  EXPECT_EQ(scan.corrupt, 1u);
  EXPECT_TRUE(scan.records.empty());  // framing past damage is untrusted
}

TEST(JournalReader, CrcValidUnknownJobStatusIsCorruptNotAThrow) {
  // Intact frame and CRC, but the payload names an unknown job status:
  // damage like any other, reported in the scan, never thrown.
  JournalRecord t;
  t.lsn = 1;
  t.type = RecordType::kTerminal;
  t.seq = 3;
  t.result.id = 42;
  std::string payload = encode_record(t);
  const std::string head = "1 terminal 3 42 ok ";
  ASSERT_EQ(payload.rfind(head, 0), 0u) << payload;
  payload.replace(0, head.size(), "1 terminal 3 42 bogus ");
  std::string frame;
  wire::put_u32le(frame, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32le(frame, crc32(payload));
  const std::string seg = ::testing::TempDir() + "/bogus-status.wal";
  std::ofstream(seg, std::ios::binary | std::ios::trunc) << frame + payload;
  SegmentScan scan;
  ASSERT_NO_THROW(scan = read_segment(seg));
  EXPECT_EQ(scan.corrupt, 1u);
  EXPECT_TRUE(scan.records.empty());
}

TEST(JournalReader, ListSegmentsSortsByFirstLsn) {
  const std::string dir = fresh_dir("jw_list");
  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = false;
  JournalWriter w(cfg, 2);
  JournalRecord r;
  r.type = RecordType::kMark;
  r.site = "x";
  for (int i = 0; i < 3; ++i) {
    w.append(r);
    w.rotate();
  }
  const std::vector<std::string> segs = list_segments(dir);
  ASSERT_EQ(segs.size(), 4u);  // 3 rotated away + current empty
  std::uint64_t prev = 0;
  for (const std::string& s : segs) {
    const SegmentScan scan = read_segment(s);
    if (scan.records.empty()) continue;
    EXPECT_GE(scan.records[0].lsn, prev);
    prev = scan.records[0].lsn;
  }
}

TEST(JournalDegraded, DiskFaultsDegradeDropAndHealOnAFreshSegment) {
  // DESIGN.md §12: append never throws once constructed. Disk faults put
  // the writer in degraded mode (records dropped and counted, LSNs still
  // consumed); the first append after the disk recovers heals onto a
  // fresh segment named by its own LSN, so no byte is ever appended
  // after a possibly-torn tail.
  const std::string dir = ::testing::TempDir() + "/dsm_journal_degraded";
  std::ostringstream rm;
  rm << "rm -rf '" << dir << "'";
  ASSERT_EQ(std::system(rm.str().c_str()), 0);

  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = true;  // the fsync fault path must be live
  JournalWriter w(cfg, 0);
  JournalRecord r;
  r.type = RecordType::kMark;
  r.site = "phase";
  EXPECT_EQ(w.append(r), 0u);
  EXPECT_FALSE(w.degraded());

  FsFaultConfig faults;
  faults.seed = 5;
  faults.rate = 1.0;  // every write/fsync fails until disarmed
  set_fs_fault_config(faults);
  EXPECT_EQ(w.append(r), 1u);  // dropped, not thrown
  EXPECT_TRUE(w.degraded());
  EXPECT_EQ(w.records_dropped(), 1u);
  EXPECT_EQ(w.append(r), 2u);  // heal attempt fails, dropped again
  EXPECT_TRUE(w.degraded());
  EXPECT_EQ(w.records_dropped(), 2u);
  set_fs_fault_config(FsFaultConfig{});

  EXPECT_EQ(w.append(r), 3u);  // disk is back: heal onto journal-3.wal
  EXPECT_FALSE(w.degraded());
  EXPECT_EQ(w.heals(), 1u);
  EXPECT_EQ(w.append(r), 4u);
  EXPECT_EQ(w.records_dropped(), 2u);
  EXPECT_EQ(w.next_lsn(), 5u);

  // Recovery's view: every surviving record reads back intact. The
  // dropped LSNs are gaps (harmless — recovery takes max + 1), never
  // corruption, and a torn record can only sit at an abandoned tail.
  std::vector<std::uint64_t> lsns;
  for (const std::string& seg : list_segments(dir)) {
    const SegmentScan scan = read_segment(seg);
    EXPECT_EQ(scan.corrupt, 0u) << seg;
    for (const JournalRecord& rec : scan.records) lsns.push_back(rec.lsn);
  }
  EXPECT_EQ(lsns, (std::vector<std::uint64_t>{0, 3, 4}));
}

TEST(JournalDegraded, IntermittentFaultsNeverThrowAndEveryLandedRecordIsValid) {
  // Seeded 30% fault rate over a long append run: the writer must ride
  // through every degrade/heal cycle without throwing, and whatever
  // landed must read back as valid records in strictly increasing LSN
  // order. Heals and drops must reconcile with what is on disk.
  const std::string dir = ::testing::TempDir() + "/dsm_journal_flaky";
  std::ostringstream rm;
  rm << "rm -rf '" << dir << "'";
  ASSERT_EQ(std::system(rm.str().c_str()), 0);

  JournalConfig cfg;
  cfg.dir = dir;
  cfg.fsync_data = true;
  JournalWriter w(cfg, 0);
  FsFaultConfig faults;
  faults.seed = 2026;
  faults.rate = 0.3;
  set_fs_fault_config(faults);
  constexpr int kAppends = 200;
  for (int i = 0; i < kAppends; ++i) {
    JournalRecord r;
    r.type = RecordType::kMark;
    r.seq = static_cast<std::uint64_t>(i);
    r.site = "flaky";
    EXPECT_EQ(w.append(r), static_cast<std::uint64_t>(i));
  }
  set_fs_fault_config(FsFaultConfig{});
  EXPECT_GT(w.records_dropped(), 0u);
  EXPECT_GT(w.heals(), 0u);

  std::uint64_t prev_lsn = 0;
  std::uint64_t landed = 0;
  bool first = true;
  for (const std::string& seg : list_segments(dir)) {
    const SegmentScan scan = read_segment(seg);
    EXPECT_EQ(scan.corrupt, 0u) << seg;
    for (const JournalRecord& rec : scan.records) {
      if (!first) {
        EXPECT_GT(rec.lsn, prev_lsn);
      }
      prev_lsn = rec.lsn;
      first = false;
      ++landed;
    }
  }
  // Dropped-counting is conservative: a record whose bytes landed but
  // whose fsync failed is charged as dropped (its durability is not
  // guaranteed) yet still reads back — so landed + dropped can exceed
  // the append count, never undershoot it.
  EXPECT_GE(landed + w.records_dropped(), static_cast<std::uint64_t>(kAppends));
  EXPECT_LE(landed, static_cast<std::uint64_t>(kAppends));
}

}  // namespace
}  // namespace dsm::svc
