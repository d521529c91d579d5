#include "svc/job.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "perf/report.hpp"

namespace dsm::svc {

sort::SortSpec sort_spec_for(const JobSpec& job, sort::Algo algo,
                             sort::Model model, int radix_bits) {
  sort::SortSpec spec;
  spec.algo = algo;
  spec.model = model;
  spec.nprocs = job.nprocs;
  spec.n = job.n;
  spec.radix_bits = radix_bits;
  spec.dist = job.dist;
  spec.seed = job.seed;
  spec.record = job.record;  // never inherit the process default here:
                             // replay must execute the journaled type
  spec.trace_json_path = job.trace_json_path;
  return spec;
}

std::string us_text(double ns) { return fmt_fixed(ns / 1e3, 3) + "us"; }

Status JobSpec::validate_status() const {
  std::string problems;
  const auto add = [&](const std::string& p) {
    if (!problems.empty()) problems += "; ";
    problems += p;
  };
  if (n < 1) add("job needs at least one key");
  if (nprocs < 1 || nprocs > 1024) add("job nprocs in [1, 1024]");
  if (n >= 1 && nprocs >= 1 && n < static_cast<Index>(nprocs)) {
    add("job needs at least one key per process");
  }
  if (seed == 0) add("job seed must be nonzero");
  if (priority < 0) add("job priority must be >= 0");
  if (keys::record_info(record).has_payload && n > (Index{1} << 32)) {
    add("record '" + std::string(keys::record_name(record)) +
        "' carries a 32-bit payload index; n must be <= 2^32");
  }
  if (problems.empty()) return Status();
  return Status::invalid_argument("invalid job " + std::to_string(id) + ": " +
                                  problems);
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kShed: return "shed";
    case JobStatus::kDeadlineMiss: return "deadline-miss";
  }
  return "?";
}

Result<JobStatus> job_status_from_name(const std::string& name) {
  for (const JobStatus s : {JobStatus::kOk, JobStatus::kFailed,
                            JobStatus::kShed, JobStatus::kDeadlineMiss}) {
    if (name == job_status_name(s)) return s;
  }
  return Status::corrupt_journal("unknown job status: " + name);
}

std::string Plan::to_json() const {
  std::ostringstream os;
  os << "{\"algo\": \"" << sort::algo_name(algo) << "\", \"model\": \""
     << sort::model_name(model) << "\", \"radix_bits\": " << radix_bits
     << ", \"predicted_raw_us\": " << fmt_fixed(predicted_raw_ns / 1e3, 3)
     << ", \"predicted_us\": " << fmt_fixed(predicted_ns / 1e3, 3);
  if (has_runner_up) {
    os << ", \"runner_up\": {\"algo\": \"" << sort::algo_name(runner_algo)
       << "\", \"model\": \"" << sort::model_name(runner_model)
       << "\", \"radix_bits\": " << runner_radix_bits
       << ", \"predicted_us\": " << fmt_fixed(runner_predicted_ns / 1e3, 3)
       << "}";
  }
  os << "}";
  return os.str();
}

std::string JobResult::to_json(bool include_host) const {
  std::ostringstream os;
  os << "{\"id\": " << id << ", \"status\": \"" << job_status_name(status)
     << "\"";
  const bool ran = status == JobStatus::kOk || status == JobStatus::kDeadlineMiss;
  if (!ran) {
    os << ", \"error\": \"" << perf::json_escape(error) << "\""
       << ", \"code\": \"" << status_code_name(final_status.code()) << "\"";
    if (status == JobStatus::kShed) {
      // The plan existed (shedding is a planner-informed decision).
      os << ", \"plan\": " << plan.to_json();
    }
  } else {
    os << ", \"plan\": " << plan.to_json()
       << ", \"measured_us\": " << fmt_fixed(measured_ns / 1e3, 3)
       << ", \"passes\": " << passes
       << ", \"verified\": " << (verified ? "true" : "false");
    if (status == JobStatus::kDeadlineMiss) {
      os << ", \"error\": \"" << perf::json_escape(error) << "\"";
    }
    if (audited) {
      os << ", \"runner_measured_us\": "
         << fmt_fixed(runner_measured_ns / 1e3, 3)
         << ", \"plan_hit\": " << (plan_hit ? "true" : "false");
    }
  }
  if (!attempts.empty()) {
    os << ", \"attempts\": [";
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      const AttemptRecord& a = attempts[i];
      os << (i ? ", " : "") << "{\"error\": \"" << perf::json_escape(a.error)
         << "\", \"retryable\": " << (a.retryable ? "true" : "false")
         << ", \"backoff_ms\": " << fmt_fixed(a.backoff_ms, 3) << "}";
    }
    os << "]";
  }
  if (include_host) {
    os << ", \"host_latency_ms\": " << fmt_fixed(host_latency_ms, 3);
  }
  os << "}";
  return os.str();
}

}  // namespace dsm::svc
