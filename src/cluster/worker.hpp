// Cluster worker: the process-side loop behind a Channel.
//
// A worker is intentionally dumb: it owns no queue, no planner, no
// journal. It sends a hello, then serves one task at a time — run the
// attempt through svc::run_attempt_here (the function the in-process
// service runs, with the task's FaultConfig), stream its progress marks
// back, answer with a done message — until the channel closes or a
// shutdown message arrives. All policy (retry, deadline classification,
// journaling, calibration) stays in the master; that is what makes a
// remote attempt byte-identical to a local one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/transport.hpp"

namespace dsm::cluster {

struct WorkerOptions {
  std::string label = "worker";
  /// Test/harness hook fired at every execution site ("exec.<site>",
  /// seq) before fault/deadline checks — the worker-side mirror of
  /// DurabilityConfig::crash_hook. The crash harness _exit()s inside it
  /// to kill this worker at a precise mid-job point. Only usable for
  /// fork-spawned workers (a std::function cannot cross the wire).
  std::function<void(const char* site, std::uint64_t seq)> crash_hook;

  /// Chaos knob (--lie on dsmsort_workerd): report results with a
  /// bit-flipped input checksum — the gray failure where a worker's
  /// memory or disk corrupted the data it sorted, so its locally
  /// successful result must fail the master's end-to-end integrity
  /// check. The sort itself still runs honestly; only the report lies.
  bool lie = false;
};

/// Serve tasks on `ch` until shutdown (returns 0) or channel death
/// (returns 0 on a clean master close, 1 on a protocol violation).
int worker_main(Channel ch, const WorkerOptions& opts = {});

}  // namespace dsm::cluster
