#include "svc/trace.hpp"

#include <charconv>
#include <sstream>
#include <system_error>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/prng.hpp"
#include "perf/report.hpp"

namespace dsm::svc {
namespace {

/// Parse all of `text` as a base-10 integer; "8x" and "" are rejected.
template <typename T>
bool parse_whole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::vector<JobSpec> make_trace(std::uint64_t seed, std::size_t count,
                                const LoadMix& mix) {
  DSM_REQUIRE(!mix.sizes.empty() && !mix.procs.empty() && !mix.dists.empty(),
              "load mix must offer at least one size, proc count, and dist");
  DSM_REQUIRE(!mix.deadlines_us.empty() && !mix.priorities.empty(),
              "load mix deadline/priority lists must be nonempty");
  DSM_REQUIRE(!mix.records.empty(), "load mix record list must be nonempty");
  // Deadline/priority draws happen only for a non-trivial mix, so the
  // PRNG stream — and every pre-deadline trace — is byte-preserved.
  const bool draw_deadline =
      mix.deadlines_us.size() > 1 || mix.deadlines_us[0] != 0;
  const bool draw_priority =
      mix.priorities.size() > 1 || mix.priorities[0] != 0;
  const bool draw_record =
      mix.records.size() > 1 || mix.records[0] != keys::RecordType::kU32;
  SplitMix64 rng(seed);
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    JobSpec job;
    job.id = j;
    job.n = mix.sizes[rng.next() % mix.sizes.size()];
    job.nprocs = mix.procs[rng.next() % mix.procs.size()];
    job.dist = mix.dists[rng.next() % mix.dists.size()];
    job.seed = rng.next() | 1;  // any nonzero seed
    if (draw_deadline) {
      job.deadline_us = mix.deadlines_us[rng.next() % mix.deadlines_us.size()];
    }
    if (draw_priority) {
      job.priority = mix.priorities[rng.next() % mix.priorities.size()];
    }
    if (draw_record) {
      job.record = mix.records[rng.next() % mix.records.size()];
    }
    if (!mix.algos.empty()) {
      job.force_algo = mix.algos[rng.next() % mix.algos.size()];
    }
    const Status valid = job.validate_status();
    if (!valid.ok()) throw Error(valid);
    jobs.push_back(job);
  }
  return jobs;
}

std::string trace_to_text(std::span<const JobSpec> jobs) {
  std::ostringstream os;
  os << "# dsmsort service trace: id n nprocs dist seed "
        "force_algo force_model force_radix [deadline_us priority]\n";
  for (const JobSpec& j : jobs) {
    os << j.id << ' ' << j.n << ' ' << j.nprocs << ' '
       << keys::dist_name(j.dist) << ' ' << j.seed << ' '
       << (j.force_algo ? sort::algo_name(*j.force_algo) : "-") << ' '
       << (j.force_model ? sort::model_name(*j.force_model) : "-") << ' ';
    if (j.force_radix_bits) {
      os << *j.force_radix_bits;
    } else {
      os << '-';
    }
    // Trailing fields only when non-default, so pre-deadline traces
    // round-trip byte-identically. A non-u32 record forces the deadline
    // and priority columns out (as '-'/0 defaults) — the grammar is
    // positional.
    const bool has_record = j.record != keys::RecordType::kU32;
    if (j.deadline_us != 0 || j.priority != 0 || has_record) {
      if (j.deadline_us != 0) {
        os << ' ' << j.deadline_us;
      } else {
        os << " -";
      }
      os << ' ' << j.priority;
      if (has_record) os << ' ' << keys::record_name(j.record);
    }
    os << '\n';
  }
  return os.str();
}

Result<std::vector<JobSpec>> trace_from_text(const std::string& text) {
  std::vector<JobSpec> jobs;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const auto bad = [&](const std::string& why) {
      return Status::invalid_argument("trace line " + std::to_string(lineno) +
                                      ": " + why);
    };
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    JobSpec j;
    std::string id, dist, algo, model, radix;
    if (!(fields >> id)) continue;  // blank / comment-only line
    if (!parse_whole(id, &j.id)) return bad("bad id: " + id);
    if (!(fields >> j.n >> j.nprocs >> dist >> j.seed >> algo >> model >>
          radix)) {
      return bad("expected 8 fields: " + line);
    }
    std::string deadline, priority;
    if (fields >> deadline) {
      if (!(fields >> priority)) {
        return bad("deadline_us without priority: " + line);
      }
    }
    std::string record;
    fields >> record;
    std::string extra;
    if (fields >> extra) return bad("trailing field: " + extra);
    const Result<keys::Dist> d = keys::try_dist_from_name(dist);
    if (!d.ok()) return bad(d.status().message());
    j.dist = d.value();
    if (algo != "-") {
      const Result<sort::Algo> a = sort::try_algo_from_name(algo);
      if (!a.ok()) return bad(a.status().message());
      j.force_algo = a.value();
    }
    if (model != "-") {
      const Result<sort::Model> m = sort::try_model_from_name(model);
      if (!m.ok()) return bad(m.status().message());
      j.force_model = m.value();
    }
    if (radix != "-") {
      int r = 0;
      if (!parse_whole(radix, &r)) return bad("bad radix: " + radix);
      j.force_radix_bits = r;
    }
    if (!deadline.empty() && deadline != "-" &&
        !parse_whole(deadline, &j.deadline_us)) {
      return bad("bad deadline_us: " + deadline);
    }
    if (!priority.empty() && priority != "-" &&
        !parse_whole(priority, &j.priority)) {
      return bad("bad priority: " + priority);
    }
    if (!record.empty() && record != "-") {
      const Result<keys::RecordType> r = keys::record_from_name(record);
      if (!r.ok()) return bad(r.status().message());
      j.record = r.value();
    }
    const Status valid = j.validate_status();
    if (!valid.ok()) return bad(valid.message());
    jobs.push_back(std::move(j));
  }
  return jobs;
}

Status write_trace(const std::string& path, std::span<const JobSpec> jobs) {
  return try_write_file_atomic(path, trace_to_text(jobs));
}

Result<std::vector<JobSpec>> read_trace(const std::string& path) {
  Result<std::string> text = try_read_file(path);
  if (!text.ok()) return text.status();
  return trace_from_text(*text);
}

}  // namespace dsm::svc
