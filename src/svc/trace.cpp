#include "svc/trace.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/prng.hpp"
#include "perf/report.hpp"
#include "svc/wire.hpp"

namespace dsm::svc {

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
  os << "# dsmsort service trace: id n nprocs dist seed force_algo "
        "force_model force_radix deadline_us priority record\n";
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
    if (j.deadline_us != 0) {
      os << ' ' << j.deadline_us;
    } else {
      os << " -";
    }
    os << ' ' << j.priority << ' ' << keys::record_name(j.record) << '\n';
  }
  return os.str();
}

Result<std::vector<JobSpec>> trace_from_text(const std::string& text) {
  constexpr std::size_t kFields = 11;
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
    std::vector<std::string> f;
    for (std::string t; fields >> t;) f.push_back(std::move(t));
    if (f.empty()) continue;  // blank / comment-only line
    if (f.size() != kFields) {
      return bad("expected " + std::to_string(kFields) + " fields, got " +
                 std::to_string(f.size()) + ": " + line);
    }
    JobSpec j;
    if (!wire::parse_whole(f[0], &j.id)) return bad("bad id: " + f[0]);
    if (!wire::parse_whole(f[1], &j.n)) return bad("bad n: " + f[1]);
    if (!wire::parse_whole(f[2], &j.nprocs)) return bad("bad nprocs: " + f[2]);
    const Result<keys::Dist> d = keys::try_dist_from_name(f[3]);
    if (!d.ok()) return bad(d.status().message());
    j.dist = d.value();
    if (!wire::parse_whole(f[4], &j.seed)) return bad("bad seed: " + f[4]);
    if (f[5] != "-") {
      const Result<sort::Algo> a = sort::try_algo_from_name(f[5]);
      if (!a.ok()) return bad(a.status().message());
      j.force_algo = a.value();
    }
    if (f[6] != "-") {
      const Result<sort::Model> m = sort::try_model_from_name(f[6]);
      if (!m.ok()) return bad(m.status().message());
      j.force_model = m.value();
    }
    if (f[7] != "-") {
      int r = 0;
      if (!wire::parse_whole(f[7], &r)) return bad("bad radix: " + f[7]);
      j.force_radix_bits = r;
    }
    if (f[8] != "-" && !wire::parse_whole(f[8], &j.deadline_us)) {
      return bad("bad deadline_us: " + f[8]);
    }
    if (!wire::parse_whole(f[9], &j.priority)) {
      return bad("bad priority: " + f[9]);
    }
    const Result<keys::RecordType> r = keys::record_from_name(f[10]);
    if (!r.ok()) return bad(r.status().message());
    j.record = r.value();
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
