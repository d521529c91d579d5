// The four benchmark workloads (README.md explains why each exists).
//
// A run sets up the system several times (setup_s is the median), then
// measures one live run of the workload with tracing off. A traced run
// (--trace 1) repeats the live run with the library's public hooks armed,
// then replays every completed job serially, timing each layer through its
// public entry point, and reports the per-layer metrics instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  /// 1/10 scale: a tenth of the run time and a grid without the large
  /// sizes, for a quick end-to-end check of the benchmark itself.
  bool smoke = false;
  /// Service workloads only: submit the whole trace at once and report the
  /// completed jobs per second (the saturation capacity).
  bool probe_capacity = false;
  /// Directory for spans.jsonl and scratch state (journals). Must exist.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  /// Every correctness problem found; the run is correct iff empty.
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra human-readable lines (lateness, digests, sample counts).
  std::vector<std::string> notes;
};

/// Run one workload. Throws on a setup failure the run cannot recover from.
RunReport run_workload(const RunOptions& opt);

}  // namespace bench
