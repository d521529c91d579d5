// Calibration snapshots: codec round-trips (planner cells bit-exact,
// metrics byte-identical, inflight jobs intact), atomic publish, and the
// corrupt-snapshot surface recovery falls back on.
#include "svc/snapshot.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/fsio.hpp"
#include "common/status.hpp"
#include "svc/metrics.hpp"
#include "svc/planner.hpp"

namespace dsm::svc {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

SnapshotData sample_snapshot() {
  SnapshotData s;
  s.lsn = 17;
  s.next_seq = 4;
  std::uint64_t i = 0;
  for (const auto& ae : sort::kAlgoNames) {
    for (const auto& me : sort::kModelNames) {
      Planner::CellState c;
      c.algo = ae.value;
      c.model = me.value;
      c.factor = 0.9 + static_cast<double>(i) * (1.0 / 3.0);  // not
      // decimal-representable: only hexfloat round-trips it bit-exactly.
      c.samples = i * i;
      s.planner_cells.push_back(c);
      ++i;
    }
  }
  Metrics m;
  m.on_admission(Admission::kAccepted);
  m.on_admission(Admission::kAccepted);
  m.on_admission(Admission::kRejectedFull);
  m.on_fault(FaultSite::kKeygen);
  m.note_queue_depth(3);
  JobResult r;
  r.id = 1;
  r.status = JobStatus::kOk;
  r.measured_ns = 5000.0;
  r.plan.predicted_raw_ns = 5500.0;
  r.plan.predicted_ns = 5100.0;
  m.on_complete(r);
  m.on_snapshot();
  s.metrics = m.export_state();
  JobSpec j;
  j.id = 99;
  j.svc_seq = 2;
  j.crash_count = 1;
  j.crash_site = "execute:keygen";
  Plan p;
  p.radix_bits = 14;
  p.predicted_ns = 1.0 / 7.0;
  j.recovered_plan = p;
  s.inflight.push_back(j);
  s.known_ids = {1, 2, 99};
  return s;
}

TEST(SnapshotCodec, RoundTripsEverything) {
  const SnapshotData want = sample_snapshot();
  const SnapshotData got = decode_snapshot(encode_snapshot(want)).value();
  EXPECT_EQ(got.lsn, 17u);
  EXPECT_EQ(got.next_seq, 4u);
  ASSERT_EQ(got.planner_cells.size(), Planner::kNumCells);
  for (std::size_t i = 0; i < got.planner_cells.size(); ++i) {
    // Tagged cells2 format: (algo, model) names ride with each cell.
    EXPECT_EQ(got.planner_cells[i].algo, want.planner_cells[i].algo) << i;
    EXPECT_EQ(got.planner_cells[i].model, want.planner_cells[i].model) << i;
    // Hexfloat: EWMA factors restore bit-exactly.
    EXPECT_EQ(got.planner_cells[i].factor, want.planner_cells[i].factor);
    EXPECT_EQ(got.planner_cells[i].samples, want.planner_cells[i].samples);
  }
  ASSERT_EQ(got.inflight.size(), 1u);
  EXPECT_EQ(got.inflight[0].id, 99u);
  EXPECT_EQ(got.inflight[0].svc_seq, 2u);
  EXPECT_EQ(got.inflight[0].crash_count, 1);
  EXPECT_EQ(got.inflight[0].crash_site, "execute:keygen");
  ASSERT_TRUE(got.inflight[0].recovered_plan.has_value());
  EXPECT_EQ(got.inflight[0].recovered_plan->radix_bits, 14);
  EXPECT_EQ(got.inflight[0].recovered_plan->predicted_ns, 1.0 / 7.0);
  EXPECT_EQ(got.known_ids, (std::vector<std::uint64_t>{1, 2, 99}));
}

TEST(SnapshotCodec, MetricsStateRestoresByteIdentically) {
  const SnapshotData want = sample_snapshot();
  const SnapshotData got = decode_snapshot(encode_snapshot(want)).value();
  Metrics a;
  a.import_state(want.metrics);
  Metrics b;
  b.import_state(got.metrics);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(b.durability().snapshots, 1u);
  EXPECT_EQ(b.counters().accepted, 2u);
}

TEST(SnapshotCodec, MalformedPayloadThrowsCorruptJournal) {
  for (const std::string& bad :
       {std::string(""), std::string("wrongmagic 1 2"),
        std::string("dsmsnap1 not-a-number")}) {
    const Result<SnapshotData> r = decode_snapshot(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptJournal) << bad;
  }
}

// Swap the encoded cell list for an arbitrary replacement, so tests can
// feed the decoder hostile cell payloads around otherwise
// valid snapshot bytes.
std::string with_cell_list(const std::string& cell_list) {
  SnapshotData s = sample_snapshot();
  s.planner_cells.clear();
  std::string payload = encode_snapshot(s);
  const std::string marker = " cells2 0";
  const std::size_t pos = payload.find(marker);
  EXPECT_NE(pos, std::string::npos);
  payload.replace(pos, marker.size(), cell_list);
  return payload;
}

TEST(SnapshotCodec, HostileCellListsAreCorruptJournalNotBlindCasts) {
  // The pre-cells2 layout (exactly 8 untagged positional cells) is no
  // longer decoded: it is corrupt like any other untagged list.
  std::string untagged8 = " 8";
  for (int i = 0; i < 8; ++i) {
    untagged8 += " 0x1.8p+0 " + std::to_string(i);
  }
  for (const std::string& bad : {
           // Unknown algorithm name in a tagged cell.
           std::string(" cells2 1 quicksort SHMEM 0x1p+0 0"),
           // Unknown model name in a tagged cell.
           std::string(" cells2 1 radix HYPERCUBE 0x1p+0 0"),
           // Tagged count beyond the registry matrix.
           std::string(" cells2 99"),
           // Untagged positional lists, the paper's 8 cells or not.
           untagged8,
           std::string(" 7 0x1p+0 0"),
       }) {
    const Result<SnapshotData> r = decode_snapshot(with_cell_list(bad));
    ASSERT_FALSE(r.ok()) << "cell list:" << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptJournal) << bad;
  }
}

TEST(SnapshotFile, WriteThenLoadRoundTrips) {
  const std::string path = fresh_dir("snap_rt") + "/snapshot.bin";
  ASSERT_TRUE(write_snapshot(path, sample_snapshot()).ok());
  Result<SnapshotData> got = load_snapshot(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->lsn, 17u);
  EXPECT_EQ(encode_snapshot(*got), encode_snapshot(sample_snapshot()));
}

TEST(SnapshotFile, OverwriteReplacesAtomically) {
  const std::string dir = fresh_dir("snap_ow");
  const std::string path = dir + "/snapshot.bin";
  SnapshotData s = sample_snapshot();
  ASSERT_TRUE(write_snapshot(path, s).ok());
  s.lsn = 99;
  ASSERT_TRUE(write_snapshot(path, s).ok());
  Result<SnapshotData> got = load_snapshot(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->lsn, 99u);
}

TEST(SnapshotFile, MissingFileIsIoErrorNotCorrupt) {
  Result<SnapshotData> got =
      load_snapshot(::testing::TempDir() + "/definitely-absent/snapshot.bin");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

TEST(SnapshotFile, BitFlipIsCorruptJournal) {
  const std::string dir = fresh_dir("snap_flip");
  const std::string path = dir + "/snapshot.bin";
  ASSERT_TRUE(write_snapshot(path, sample_snapshot()).ok());
  Result<std::string> bytes = try_read_file(path);
  ASSERT_TRUE(bytes.ok());
  std::string flipped = *bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << flipped;
  }
  Result<SnapshotData> got = load_snapshot(path);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruptJournal);
}

TEST(SnapshotFile, TruncationIsCorruptJournal) {
  const std::string dir = fresh_dir("snap_trunc");
  const std::string path = dir + "/snapshot.bin";
  ASSERT_TRUE(write_snapshot(path, sample_snapshot()).ok());
  Result<std::string> bytes = try_read_file(path);
  ASSERT_TRUE(bytes.ok());
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes->substr(0, bytes->size() / 2);
  }
  Result<SnapshotData> got = load_snapshot(path);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruptJournal);
}

TEST(SnapshotFile, CrashHookFiresAroundRename) {
  const std::string dir = fresh_dir("snap_hook");
  std::vector<std::string> sites;
  const SnapshotData s = sample_snapshot();
  ASSERT_TRUE(write_snapshot(dir + "/snapshot.bin", s,
                             [&](const char* site, std::uint64_t seq) {
                               sites.push_back(site);
                               EXPECT_EQ(seq, s.lsn);
                             })
                  .ok());
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "snapshot.before-rename");
  EXPECT_EQ(sites[1], "snapshot.after-rename");
}

}  // namespace
}  // namespace dsm::svc
