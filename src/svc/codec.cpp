#include "svc/codec.hpp"

#include "sort/sort_api.hpp"

namespace dsm::svc::codec {

using wire::dbl;
using wire::netstr;
using wire::Parser;

namespace {

// Enum fields arrive from journals and cluster sockets, so an unknown
// name (old format, new peer, or hostile stream) is the payload's typed
// corruption status (Parser::must), never a blind cast.
sort::Algo get_algo(Parser& p) {
  return p.must(sort::try_algo_from_name(p.tok()));
}

sort::Model get_model(Parser& p) {
  return p.must(sort::try_model_from_name(p.tok()));
}

keys::Dist get_dist(Parser& p) {
  return p.must(keys::try_dist_from_name(p.tok()));
}

}  // namespace

void put_plan(std::ostringstream& os, const Plan& p) {
  os << ' ' << sort::algo_name(p.algo) << ' ' << sort::model_name(p.model)
     << ' ' << p.radix_bits << ' ' << dbl(p.predicted_raw_ns) << ' '
     << dbl(p.predicted_ns) << ' ' << (p.has_runner_up ? 1 : 0);
  if (p.has_runner_up) {
    os << ' ' << sort::algo_name(p.runner_algo) << ' '
       << sort::model_name(p.runner_model) << ' ' << p.runner_radix_bits
       << ' ' << dbl(p.runner_predicted_ns);
  }
}

Plan get_plan(Parser& p) {
  Plan out;
  out.algo = get_algo(p);
  out.model = get_model(p);
  out.radix_bits = p.i32();
  out.predicted_raw_ns = p.d();
  out.predicted_ns = p.d();
  out.has_runner_up = p.b();
  if (out.has_runner_up) {
    out.runner_algo = get_algo(p);
    out.runner_model = get_model(p);
    out.runner_radix_bits = p.i32();
    out.runner_predicted_ns = p.d();
  }
  return out;
}

void put_attempt(std::ostringstream& os, const AttemptRecord& a) {
  os << ' ' << netstr(a.error) << ' ' << (a.retryable ? 1 : 0) << ' '
     << dbl(a.backoff_ms) << ' ' << a.fault_site;
}

AttemptRecord get_attempt(Parser& p) {
  AttemptRecord a;
  a.error = p.str();
  a.retryable = p.b();
  a.backoff_ms = p.d();
  a.fault_site = p.i32();
  return a;
}

void put_job(std::ostringstream& os, const JobSpec& j) {
  os << ' ' << j.id << ' ' << j.n << ' ' << j.nprocs << ' '
     << keys::dist_name(j.dist) << ' ' << j.seed;
  os << ' ' << (j.force_algo ? 1 : 0);
  if (j.force_algo) os << ' ' << sort::algo_name(*j.force_algo);
  os << ' ' << (j.force_model ? 1 : 0);
  if (j.force_model) os << ' ' << sort::model_name(*j.force_model);
  os << ' ' << (j.force_radix_bits ? 1 : 0);
  if (j.force_radix_bits) os << ' ' << *j.force_radix_bits;
  os << ' ' << j.deadline_us << ' ' << j.priority << ' '
     << netstr(j.trace_json_path) << ' ' << j.crash_count << ' '
     << netstr(j.crash_site) << ' ' << (j.recovered_plan ? 1 : 0);
  if (j.recovered_plan) put_plan(os, *j.recovered_plan);
  // Versioned trailing field (format v2): the record type rides as a
  // ` rec <name>` sentinel run, emitted only for non-u32 jobs — every
  // pre-existing byte stream is unchanged and old journals keep decoding
  // (absent field == u32). The sentinel can never collide with the plan
  // that follows a job in cluster frames: "rec" is not an algo name.
  if (j.record != keys::RecordType::kU32) {
    os << " rec " << keys::record_name(j.record);
  }
}

JobSpec get_job(Parser& p) {
  JobSpec j;
  j.id = p.u64();
  j.n = static_cast<Index>(p.u64());
  j.nprocs = p.i32();
  j.dist = get_dist(p);
  j.seed = p.u64();
  if (p.b()) j.force_algo = get_algo(p);
  if (p.b()) j.force_model = get_model(p);
  if (p.b()) j.force_radix_bits = p.i32();
  j.deadline_us = p.u64();
  j.priority = p.i32();
  j.trace_json_path = p.str();
  j.crash_count = p.i32();
  j.crash_site = p.str();
  if (p.b()) j.recovered_plan = get_plan(p);
  if (p.peek_tok() == "rec") {
    p.tok();  // consume the sentinel
    j.record = p.must(keys::record_from_name(p.tok()));
  }
  return j;
}

}  // namespace dsm::svc::codec
