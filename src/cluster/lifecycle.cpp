#include "cluster/lifecycle.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace dsm::cluster {
namespace {

/// Strict full-string parse of a deployment knob: exactly an optional
/// sign plus base-10 digits within [min_value, max_value]. Anything else
/// (leading whitespace, trailing garbage, overflow, out of range) throws
/// Error naming `name`, quoting `text` and describing the accepted values
/// as `what` — a mistyped knob fails at startup, not silently.
int parse_bounded(const char* name, const char* text, long long min_value,
                  long long max_value, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  // strtoll itself would skip leading whitespace; reject it explicitly.
  if (std::isspace(static_cast<unsigned char>(*text)) || end == text ||
      *end != '\0' || errno == ERANGE || v < min_value || v > max_value) {
    throw Error(std::string(name) + " must be " + what + ", got: \"" + text +
                "\"");
  }
  return static_cast<int>(v);
}

}  // namespace

const char* worker_state_name(WorkerState s) {
  switch (s) {
    case WorkerState::kFree: return "free";
    case WorkerState::kWorking: return "working";
    case WorkerState::kDraining: return "draining";
    case WorkerState::kDead: return "dead";
    case WorkerState::kQuarantined: return "quarantined";
  }
  return "?";
}

int target_worker_count(const ElasticPolicy& policy, std::size_t batch_jobs,
                        double predicted_ns, std::size_t queue_depth) {
  const int floor_workers = std::max(1, policy.min_workers);
  const int cap = std::max(floor_workers, policy.max_workers);
  if (!policy.elastic) return cap;
  if (batch_jobs == 0 && queue_depth == 0) return floor_workers;
  const double per_job =
      batch_jobs > 0 ? predicted_ns / static_cast<double>(batch_jobs)
                     : policy.target_ns_per_worker;
  const double backlog_ns =
      predicted_ns + per_job * static_cast<double>(queue_depth);
  const double budget = std::max(1.0, policy.target_ns_per_worker);
  const double want = std::ceil(backlog_ns / budget);
  if (want >= static_cast<double>(cap)) return cap;
  return std::max(floor_workers, std::max(1, static_cast<int>(want)));
}

int parse_cluster_workers(const char* name, const char* text) {
  return parse_bounded(name, text, 0, 256,
                       "a worker process count in [0, 256]");
}

int cluster_workers_from_env() {
  const char* env = std::getenv("DSMSORT_CLUSTER_WORKERS");
  if (env == nullptr) return 0;
  return parse_cluster_workers("DSMSORT_CLUSTER_WORKERS", env);
}

int parse_heartbeat_ms(const char* name, const char* text) {
  return parse_bounded(name, text, 0, 60000,
                       "a heartbeat period in ms in [0, 60000]");
}

int parse_suspect_after(const char* name, const char* text) {
  return parse_bounded(name, text, 1, 1000,
                       "a missed-heartbeat count in [1, 1000]");
}

int heartbeat_ms_from_env() {
  const char* env = std::getenv("DSMSORT_HEARTBEAT_MS");
  if (env == nullptr) return 0;
  return parse_heartbeat_ms("DSMSORT_HEARTBEAT_MS", env);
}

int suspect_after_from_env() {
  const char* env = std::getenv("DSMSORT_SUSPECT_AFTER");
  if (env == nullptr) return 3;
  return parse_suspect_after("DSMSORT_SUSPECT_AFTER", env);
}

}  // namespace dsm::cluster
