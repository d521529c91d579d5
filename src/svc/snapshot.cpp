#include "svc/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "svc/journal.hpp"
#include "svc/wire.hpp"

namespace dsm::svc {
namespace {

using wire::dbl;
using wire::get_u32le;
using wire::kMaxRecordBytes;
using wire::netstr;
using wire::Parser;
using wire::put_u32le;

constexpr const char kMagic[] = "dsmsnap1";

/// Inflight jobs reuse the journal's admit-record codec (netstring-
/// wrapped), so the snapshot and the journal cannot drift apart on how a
/// JobSpec serializes.
std::string encode_job(const JobSpec& j) {
  JournalRecord r;
  r.type = RecordType::kAdmit;
  r.seq = j.svc_seq;
  r.job = j;
  return encode_record(r);
}

JobSpec decode_job(const std::string& payload) {
  const JournalRecord r = decode_record(payload).value();
  if (r.type != RecordType::kAdmit) {
    throw Error(
        Status::corrupt_journal("snapshot inflight entry is not an admit"));
  }
  return r.job;
}

void put_u64_vec(std::ostringstream& os, const std::vector<std::uint64_t>& v) {
  os << ' ' << v.size();
  for (const std::uint64_t x : v) os << ' ' << x;
}

std::vector<std::uint64_t> get_u64_vec(Parser& p, std::size_t max_len) {
  const std::uint64_t n = p.u64();
  if (n > max_len) {
    throw Error(Status::corrupt_journal("snapshot vector too long"));
  }
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(p.u64());
  return out;
}

void put_dbl_vec(std::ostringstream& os, const std::vector<double>& v) {
  os << ' ' << v.size();
  for (const double x : v) os << ' ' << dbl(x);
}

std::vector<double> get_dbl_vec(Parser& p, std::size_t max_len) {
  const std::uint64_t n = p.u64();
  if (n > max_len) {
    throw Error(Status::corrupt_journal("snapshot vector too long"));
  }
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(p.d());
  return out;
}

// Keep a hostile length field from allocating unbounded memory while
// still being far above anything a real service accumulates.
constexpr std::size_t kMaxVec = 1u << 24;

}  // namespace

std::string encode_snapshot(const SnapshotData& s) {
  std::ostringstream os;
  os << kMagic << ' ' << s.lsn << ' ' << s.next_seq;

  // Versioned cell list (format "cells2"): cells are named by their
  // (algo, model) tags instead of relying on positional layout, so the
  // snapshot stays decodable as the algorithm registry grows.
  os << " cells2 " << s.planner_cells.size();
  for (const Planner::CellState& c : s.planner_cells) {
    os << ' ' << sort::algo_name(c.algo) << ' ' << sort::model_name(c.model)
       << ' ' << dbl(c.factor) << ' ' << c.samples;
  }

  const Metrics::Counters& c = s.metrics.counters;
  os << ' ' << c.submitted << ' ' << c.accepted << ' ' << c.rejected_full
     << ' ' << c.rejected_closed << ' ' << c.rejected_invalid << ' '
     << c.rejected_fault << ' ' << c.rejected_duplicate << ' ' << c.completed
     << ' ' << c.failed << ' ' << c.shed << ' ' << c.deadline_miss << ' '
     << c.retry_attempts << ' ' << c.retry_successes << ' ' << c.audited
     << ' ' << c.plan_hits;
  const Metrics::Durability& d = s.metrics.durability;
  os << ' ' << d.journal_torn_tail << ' ' << d.journal_corrupt << ' '
     << d.recoveries << ' ' << d.replayed_terminal << ' ' << d.requeued
     << ' ' << d.quarantined << ' ' << d.snapshots;
  os << ' ' << s.metrics.depth_high_water;
  put_u64_vec(os, s.metrics.latency_hist);
  put_u64_vec(os, s.metrics.retry_hist);
  put_u64_vec(os, s.metrics.faults);
  put_dbl_vec(os, s.metrics.rel_err_raw);
  put_dbl_vec(os, s.metrics.rel_err_cal);

  os << ' ' << s.inflight.size();
  for (const JobSpec& j : s.inflight) os << ' ' << netstr(encode_job(j));

  put_u64_vec(os, s.known_ids);
  return os.str();
}

namespace {

SnapshotData parse_snapshot(const std::string& payload) {
  Parser p(payload);
  if (p.tok() != kMagic) {
    throw Error(Status::corrupt_journal("snapshot magic mismatch"));
  }
  SnapshotData s;
  s.lsn = p.u64();
  s.next_seq = p.u64();

  // Named cell list: a missing version sentinel, or an unknown algorithm
  // or model name, is a typed corruption error, never a blind cast.
  if (p.tok() != "cells2") {
    throw Error(
        Status::corrupt_journal("snapshot planner cells: expected cells2"));
  }
  const std::uint64_t ncells = p.u64();
  if (ncells > Planner::kNumCells) {
    throw Error(Status::corrupt_journal("snapshot planner cell count"));
  }
  s.planner_cells.reserve(ncells);
  for (std::uint64_t i = 0; i < ncells; ++i) {
    Planner::CellState c;
    c.algo = p.must(sort::try_algo_from_name(p.tok()));
    c.model = p.must(sort::try_model_from_name(p.tok()));
    c.factor = p.d();
    c.samples = p.u64();
    s.planner_cells.push_back(c);
  }

  Metrics::Counters& c = s.metrics.counters;
  c.submitted = p.u64();
  c.accepted = p.u64();
  c.rejected_full = p.u64();
  c.rejected_closed = p.u64();
  c.rejected_invalid = p.u64();
  c.rejected_fault = p.u64();
  c.rejected_duplicate = p.u64();
  c.completed = p.u64();
  c.failed = p.u64();
  c.shed = p.u64();
  c.deadline_miss = p.u64();
  c.retry_attempts = p.u64();
  c.retry_successes = p.u64();
  c.audited = p.u64();
  c.plan_hits = p.u64();
  Metrics::Durability& d = s.metrics.durability;
  d.journal_torn_tail = p.u64();
  d.journal_corrupt = p.u64();
  d.recoveries = p.u64();
  d.replayed_terminal = p.u64();
  d.requeued = p.u64();
  d.quarantined = p.u64();
  d.snapshots = p.u64();
  s.metrics.depth_high_water = static_cast<std::size_t>(p.u64());
  s.metrics.latency_hist = get_u64_vec(p, kMaxVec);
  s.metrics.retry_hist = get_u64_vec(p, kMaxVec);
  s.metrics.faults = get_u64_vec(p, kMaxVec);
  s.metrics.rel_err_raw = get_dbl_vec(p, kMaxVec);
  s.metrics.rel_err_cal = get_dbl_vec(p, kMaxVec);

  const std::uint64_t njobs = p.u64();
  if (njobs > kMaxVec) {
    throw Error(Status::corrupt_journal("snapshot inflight too long"));
  }
  s.inflight.reserve(njobs);
  for (std::uint64_t i = 0; i < njobs; ++i) {
    s.inflight.push_back(decode_job(p.str()));
  }

  s.known_ids = get_u64_vec(p, kMaxVec);
  return s;
}

}  // namespace

Result<SnapshotData> decode_snapshot(const std::string& payload) {
  return wire::decode([&] { return parse_snapshot(payload); });
}

Status write_snapshot(
    const std::string& path, const SnapshotData& s,
    const std::function<void(const char*, std::uint64_t)>& crash_hook) {
  const std::string payload = encode_snapshot(s);
  std::string framed;
  framed.reserve(payload.size() + 8);
  put_u32le(framed, static_cast<std::uint32_t>(payload.size()));
  put_u32le(framed, crc32(payload.data(), payload.size()));
  framed += payload;

  // The same publish sequence as try_write_file_atomic, inlined so the crash
  // hook can fire exactly around the rename — the atomicity claim the
  // crash harness exists to check.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::io_error("open " + tmp + ": " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st =
          Status::io_error("write " + tmp + ": " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status st =
        Status::io_error("fsync " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  ::close(fd);
  if (crash_hook) crash_hook("snapshot.before-rename", s.lsn);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st =
        Status::io_error("rename " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return st;
  }
  fsync_parent_dir(path);
  if (crash_hook) crash_hook("snapshot.after-rename", s.lsn);
  return Status();
}

Result<SnapshotData> load_snapshot(const std::string& path) {
  Result<std::string> bytes = try_read_file(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& framed = *bytes;
  if (framed.size() < 8) {
    return Status::corrupt_journal("snapshot too short for framing");
  }
  const auto* data = reinterpret_cast<const unsigned char*>(framed.data());
  const std::uint32_t len = get_u32le(data);
  const std::uint32_t want_crc = get_u32le(data + 4);
  if (len > kMaxRecordBytes || framed.size() - 8 != len) {
    return Status::corrupt_journal("snapshot length field mismatch");
  }
  if (crc32(static_cast<const void*>(framed.data() + 8), len) != want_crc) {
    return Status::corrupt_journal("snapshot CRC mismatch");
  }
  return decode_snapshot(framed.substr(8));
}

}  // namespace dsm::svc
