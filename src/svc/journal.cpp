#include "svc/journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "svc/codec.hpp"
#include "svc/wire.hpp"

namespace dsm::svc {
namespace {

using codec::get_attempt;
using codec::get_plan;
using codec::put_attempt;
using codec::put_plan;
using wire::dbl;
using wire::get_u32le;
using wire::kMaxRecordBytes;
using wire::netstr;
using wire::Parser;
using wire::put_u32le;

std::string segment_name(std::uint64_t first_lsn) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "journal-%012llu.wal",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

/// First LSN encoded in a segment file name, or false when the name is
/// not a segment.
bool parse_segment_name(const std::string& name, std::uint64_t* lsn) {
  constexpr const char kPrefix[] = "journal-";
  constexpr const char kSuffix[] = ".wal";
  if (name.size() <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1) return false;
  if (name.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return false;
  if (name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                   kSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(
      sizeof(kPrefix) - 1,
      name.size() - (sizeof(kPrefix) - 1) - (sizeof(kSuffix) - 1));
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *lsn = v;
  return true;
}

void ensure_dir(const std::string& dir) {
  // mkdir -p: create each component, tolerating ones that already exist.
  std::string partial;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    const std::size_t end = slash == std::string::npos ? dir.size() : slash;
    partial = dir.substr(0, end);
    pos = end + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      throw Error(Status::io_error("mkdir " + partial + ": " +
                                   std::strerror(errno)));
    }
    if (slash == std::string::npos) break;
  }
}

}  // namespace

const char* record_type_name(RecordType t) {
  switch (t) {
    case RecordType::kAdmit: return "admit";
    case RecordType::kPlanned: return "planned";
    case RecordType::kAttemptStart: return "attempt-start";
    case RecordType::kMark: return "mark";
    case RecordType::kAttemptResult: return "attempt-result";
    case RecordType::kTerminal: return "terminal";
    case RecordType::kQuarantine: return "quarantine";
    case RecordType::kDispatch: return "dispatch";
  }
  return "?";
}

Result<RecordType> record_type_from_name(const std::string& name) {
  for (int i = 0; i < kRecordTypeCount; ++i) {
    const auto t = static_cast<RecordType>(i);
    if (name == record_type_name(t)) return t;
  }
  return Status::corrupt_journal("unknown record type: " + name);
}

std::string encode_record(const JournalRecord& r) {
  std::ostringstream os;
  os << r.lsn << ' ' << record_type_name(r.type) << ' ' << r.seq;
  switch (r.type) {
    case RecordType::kAdmit:
      os << ' ' << (r.readmit ? 1 : 0);
      codec::put_job(os, r.job);
      break;
    case RecordType::kPlanned:
      put_plan(os, r.plan);
      break;
    case RecordType::kAttemptStart:
      os << ' ' << r.attempt;
      break;
    case RecordType::kMark:
      os << ' ' << netstr(r.site);
      break;
    case RecordType::kAttemptResult:
      os << ' ' << r.attempt;
      put_attempt(os, r.attempt_result);
      break;
    case RecordType::kTerminal: {
      const JobResult& jr = r.result;
      os << ' ' << jr.id << ' ' << job_status_name(jr.status) << ' '
         << netstr(jr.error) << ' '
         << status_code_name(jr.final_status.code()) << ' '
         << netstr(jr.final_status.message()) << ' '
         << (jr.final_status.retryable() ? 1 : 0) << ' '
         << dbl(jr.measured_ns) << ' ' << jr.passes << ' '
         << (jr.verified ? 1 : 0) << ' ' << (jr.audited ? 1 : 0) << ' '
         << dbl(jr.runner_measured_ns) << ' ' << (jr.plan_hit ? 1 : 0) << ' '
         << jr.final_fault_site;
      put_plan(os, jr.plan);
      os << ' ' << jr.attempts.size();
      for (const AttemptRecord& a : jr.attempts) put_attempt(os, a);
      break;
    }
    case RecordType::kQuarantine:
      os << ' ' << r.job.id << ' ' << r.crash_count << ' ' << netstr(r.site);
      break;
    case RecordType::kDispatch:
      os << ' ' << r.attempt << ' ' << netstr(r.site);
      break;
  }
  return os.str();
}

namespace {

JournalRecord parse_record(const std::string& payload) {
  Parser p(payload);
  JournalRecord r;
  r.lsn = p.u64();
  r.type = p.must(record_type_from_name(p.tok()));
  r.seq = p.u64();
  switch (r.type) {
    case RecordType::kAdmit:
      r.readmit = p.b();
      r.job = codec::get_job(p);
      r.job.svc_seq = r.seq;
      break;
    case RecordType::kPlanned:
      r.plan = get_plan(p);
      break;
    case RecordType::kAttemptStart:
      r.attempt = p.i32();
      break;
    case RecordType::kMark:
      r.site = p.str();
      break;
    case RecordType::kAttemptResult:
      r.attempt = p.i32();
      r.attempt_result = get_attempt(p);
      break;
    case RecordType::kTerminal: {
      JobResult& jr = r.result;
      jr.id = p.u64();
      jr.status = p.must(job_status_from_name(p.tok()));
      jr.error = p.str();
      const StatusCode code = p.must(status_code_from_name(p.tok()));
      const std::string msg = p.str();
      const bool retryable = p.b();
      jr.final_status = code == StatusCode::kOk
                            ? Status()
                            : Status(code, msg, retryable);
      jr.measured_ns = p.d();
      jr.passes = p.i32();
      jr.verified = p.b();
      jr.audited = p.b();
      jr.runner_measured_ns = p.d();
      jr.plan_hit = p.b();
      jr.final_fault_site = p.i32();
      jr.plan = get_plan(p);
      const std::uint64_t n_attempts = p.u64();
      if (n_attempts > 1000) {
        throw Error(Status::corrupt_journal("absurd attempt count"));
      }
      for (std::uint64_t i = 0; i < n_attempts; ++i) {
        jr.attempts.push_back(get_attempt(p));
      }
      break;
    }
    case RecordType::kQuarantine:
      r.job.id = p.u64();
      r.crash_count = p.i32();
      r.site = p.str();
      break;
    case RecordType::kDispatch:
      r.attempt = p.i32();
      r.site = p.str();
      break;
  }
  return r;
}

}  // namespace

Result<JournalRecord> decode_record(const std::string& payload) {
  return wire::decode([&] { return parse_record(payload); });
}

JournalWriter::JournalWriter(JournalConfig cfg, std::uint64_t next_lsn)
    : cfg_(std::move(cfg)), next_lsn_(next_lsn) {
  DSM_REQUIRE(!cfg_.dir.empty(), "journal needs a directory");
  ensure_dir(cfg_.dir);
  const std::lock_guard<std::mutex> lock(mu_);
  if (!try_open_segment_locked(next_lsn_)) {
    throw Error(Status::io_error(
        "open " + cfg_.dir + "/" + segment_name(next_lsn_) + ": " +
        std::strerror(errno)));
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool JournalWriter::try_open_segment_locked(std::uint64_t first_lsn) {
  // O_TRUNC, not O_EXCL: a crash immediately after a rotate can leave an
  // empty (or torn-only) segment with this exact start LSN. Recovery
  // computes next_lsn as max-seen + 1, so any segment already named by
  // first_lsn holds no valid records and truncating it is safe.
  const std::string path = cfg_.dir + "/" + segment_name(first_lsn);
  fd_ = open_retry(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return false;
  segment_bytes_ = 0;
  fsync_parent_dir(path);
  return true;
}

void JournalWriter::fire_hook(const char* site, std::uint64_t seq) {
  if (cfg_.crash_hook) cfg_.crash_hook(site, seq);
}

std::uint64_t JournalWriter::append(JournalRecord r) {
  const std::lock_guard<std::mutex> lock(mu_);
  r.lsn = next_lsn_++;
  const bool healing = degraded_;
  if (degraded_) {
    // The failed segment may end in a torn record, and nothing must ever
    // be appended after a torn record (the reader stops there and would
    // silently drop everything behind it). Heal onto a FRESH segment
    // named by this record's LSN; until one opens, keep dropping.
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (!try_open_segment_locked(r.lsn)) {
      ++dropped_;
      return r.lsn;
    }
  }
  const std::string payload = encode_record(r);
  std::string frame;
  frame.reserve(payload.size() + 8);
  put_u32le(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame, crc32(payload.data(), payload.size()));
  frame += payload;

  Status io = faulty_write_all(fd_, frame.data(), frame.size(),
                               "journal append");
  const std::string site_base =
      std::string("journal.") + record_type_name(r.type);
  fire_hook((site_base + ".before-fsync").c_str(), r.seq);
  if (io.ok() && cfg_.fsync_data) {
    io = faulty_fsync(fd_, "journal fsync");
  }
  fire_hook((site_base + ".after-fsync").c_str(), r.seq);
  if (!io.ok()) {
    // Disk fault (injected or real): degrade instead of throwing. The
    // service keeps serving; the record is dropped and counted, and the
    // next append tries a fresh segment.
    ::close(fd_);
    fd_ = -1;
    degraded_ = true;
    ++dropped_;
    return r.lsn;
  }
  if (healing) {
    degraded_ = false;
    ++heals_;
  }

  segment_bytes_ += frame.size();
  if (segment_bytes_ >= kSegmentMaxBytes) {
    ::close(fd_);
    fd_ = -1;
    if (!try_open_segment_locked(next_lsn_)) degraded_ = true;
  }
  return r.lsn;
}

void JournalWriter::rotate() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (!try_open_segment_locked(next_lsn_)) degraded_ = true;
}

std::uint64_t JournalWriter::next_lsn() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

bool JournalWriter::degraded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

std::uint64_t JournalWriter::records_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t JournalWriter::heals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return heals_;
}

std::vector<std::string> list_segments(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return {};
  while (dirent* e = ::readdir(d)) {
    std::uint64_t lsn = 0;
    if (parse_segment_name(e->d_name, &lsn)) {
      found.emplace_back(lsn, dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [lsn, path] : found) out.push_back(std::move(path));
  return out;
}

void prune_segments(const std::string& dir, std::uint64_t min_start_lsn) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (dirent* e = ::readdir(d)) {
    std::uint64_t lsn = 0;
    if (parse_segment_name(e->d_name, &lsn) && lsn < min_start_lsn) {
      doomed.push_back(dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  for (const std::string& path : doomed) ::unlink(path.c_str());
  if (!doomed.empty()) fsync_parent_dir(dir + "/.");
}

SegmentScan read_segment(const std::string& path) {
  SegmentScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      scan.torn_tail = true;  // header itself is incomplete
      break;
    }
    const std::uint32_t len = get_u32le(data + pos);
    const std::uint32_t want_crc = get_u32le(data + pos + 4);
    if (len > kMaxRecordBytes) {
      scan.corrupt = 1;  // length field is garbage; framing untrustworthy
      break;
    }
    if (bytes.size() - pos - 8 < len) {
      scan.torn_tail = true;  // payload cut short by the crash
      break;
    }
    const char* payload = bytes.data() + pos + 8;
    if (crc32(static_cast<const void*>(payload), len) != want_crc) {
      scan.corrupt = 1;
      break;
    }
    Result<JournalRecord> r = decode_record(std::string(payload, len));
    if (!r.ok()) {
      scan.corrupt = 1;
      break;
    }
    scan.records.push_back(std::move(r).value());
    pos += 8 + len;
  }
  return scan;
}

}  // namespace dsm::svc
