// service_bench: the sort service's benchmark and audit driver. One binary,
// one table row per scenario:
//
//   service_bench --scenario throughput|faults|cluster|crash|chaos
//                 [--quick] [--out PATH] [scenario flags]
//
//   throughput  open-loop load through SortService: throughput, host and
//               virtual latency percentiles, plan accuracy before/after
//               online calibration, plan audits, burst backpressure
//               (BENCH_service.json)
//   faults      2x admission capacity with the fault matrix armed: the
//               shed-bounded p99 (BENCH_faults.json)
//   cluster     replay identity across worker-process counts plus the
//               kill-worker matrix (BENCH_cluster.json)
//   crash       durable kill/restart over the (seed x crash site) matrix
//               and poison-job quarantine (BENCH_crash.json)
//   chaos       gray failures: stall, lying worker, ENOSPC on the WAL,
//               mixed kill+stall (BENCH_chaos.json)
//
// Every scenario builds a seeded trace, drives SortService, checks that
// replays are byte-identical to a reference, audits the accounting
// identities, and writes its JSON. Every invariant is DSM_CHECKed: a
// scenario fails loudly, it does not just report. --quick runs the small
// variant the ctest wiring uses.
//
// A scenario accepts only the flags it reads (the `flags` column of
// kScenarios); any other flag is an "unknown option" error, so a flag
// that would change nothing cannot be passed by mistake.
//
//   --sizes LIST --procs LIST --seed N   job mix and trace seed (all)
//   --njobs N            trace length (all; default per scenario)
//   --jobs N             service worker threads (throughput, faults)
//   --capacity N         service queue capacity (throughput, faults)
//   --replay PATH        replay a trace file instead of generating load;
//                        deterministic-only JSON, byte-identical for any
//                        --jobs value (throughput, faults)
//   --write-trace PATH   dump the generated trace (throughput, faults)
//   --fault-rate R       per-site fault probability (faults; default 0.10)
//   --nseeds N           seed-matrix width (crash; default 3, 1 quick)
//   throughput only:
//   --cluster-workers N  execute in N forked worker processes over the
//                        cluster transport (strictly validated, 0..256;
//                        0 = in-process; default DSMSORT_CLUSTER_WORKERS).
//                        Deterministic output is byte-identical either way.
//   --cluster-serve P    listen on UNIX socket P and execute on external
//                        dsmsort_workerd processes instead of forking
//                        (--cluster-workers then caps the pool;
//                        scripts/cluster_smoke.sh uses this)
//   --heartbeat-ms N     worker health protocol (0..60000; 0 = off;
//                        default DSMSORT_HEARTBEAT_MS)
//   --suspect-after N    missed heartbeats before a worker turns suspect
//                        (1..1000; default 3 or DSMSORT_SUSPECT_AFTER)
//   --record LIST        record types the mix draws from ("u32,kv32";
//                        default u32 — byte-preserves pre-record traces)
//   --algo LIST          pin every job's algorithm (planner bypass)
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

#include "cluster/lifecycle.hpp"
#include "cluster/master.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "perf/report.hpp"
#include "svc/journal.hpp"
#include "svc/recovery.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace {

using namespace dsm;

// --- The shared skeleton ----------------------------------------------

/// What a scenario's run function reads: its flags and the common env.
struct Ctx {
  const ArgParser& args;
  bench::BenchEnv env;
  bool quick = false;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The median and 99th percentile of `v` (nearest rank; 0 when empty).
struct Tail {
  double p50 = 0;
  double p99 = 0;
};

Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
  };
  return {at(0.50), at(0.99)};
}

/// `field` of every job that completed on time.
template <typename Field>
std::vector<double> ok_values(const std::vector<svc::JobResult>& results,
                              Field field) {
  std::vector<double> out;
  for (const svc::JobResult& r : results) {
    if (r.status == svc::JobStatus::kOk) out.push_back(field(r));
  }
  return out;
}

/// Virtual-time microseconds of every job that completed on time.
std::vector<double> ok_virt_us(const std::vector<svc::JobResult>& results) {
  return ok_values(
      results, [](const svc::JobResult& r) { return r.measured_ns / 1e3; });
}

/// a / b, or 0 when b is 0.
template <typename A, typename B>
double ratio(A a, B b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0;
}

svc::LoadMix mix_of(const bench::BenchEnv& env) {
  svc::LoadMix mix;
  mix.sizes = env.sizes;
  mix.procs = env.procs;
  return mix;  // dists default to all eight
}

/// max_batch and audit_every are part of a trace's determinism contract
/// (replays must match), so they vary by scenario, never by mode. Tiny
/// queues (the burst phase) shrink the batch to fit.
svc::ServiceConfig service_config(std::size_t capacity, int workers) {
  svc::ServiceConfig cfg;
  cfg.queue_capacity = capacity;
  cfg.workers = workers;
  cfg.max_batch = std::min(cfg.max_batch, capacity);
  return cfg;
}

/// The cluster, crash and chaos scenarios: one service worker, small
/// batches and frequent plan audits, so a short trace crosses several
/// batch and audit boundaries.
svc::ServiceConfig small_batch_config(std::size_t capacity) {
  svc::ServiceConfig cfg = service_config(capacity, 1);
  cfg.max_batch = std::min<std::size_t>(4, capacity);
  cfg.audit_every = 3;
  return cfg;
}

/// A fixed complement of `workers` worker processes; heartbeat_ms 0
/// leaves the health protocol off.
cluster::PoolConfig pool_config(
    int workers, int heartbeat_ms = 0,
    int suspect_after = cluster::PoolConfig{}.suspect_after) {
  cluster::PoolConfig pc;
  pc.policy.min_workers = workers;
  pc.policy.max_workers = workers;
  pc.heartbeat_ms = heartbeat_ms;
  pc.suspect_after = suspect_after;
  return pc;
}

/// A service executing on its own worker pool (a pool binds to exactly
/// one service's metrics), or in-process without a pool config. The pool
/// forks its workers, or — given a `serve` path — forks nothing and
/// accepts external dsmsort_workerd processes on that UNIX socket.
struct PooledService {
  std::unique_ptr<cluster::WorkerPool> pool;
  svc::SortService svc;

  explicit PooledService(svc::ServiceConfig cfg,
                         std::optional<cluster::PoolConfig> pc = {},
                         const std::string& serve = "")
      : pool(make_pool(pc, serve)), svc(remote(cfg, pool.get())) {
    if (pool == nullptr) return;
    const Status started = serve.empty() ? pool->start() : pool->serve(serve);
    DSM_CHECK(started.ok(), started.to_string());
  }
  ~PooledService() {
    if (pool != nullptr) pool->shutdown();
  }
  PooledService(const PooledService&) = delete;
  PooledService& operator=(const PooledService&) = delete;

 private:
  static std::unique_ptr<cluster::WorkerPool> make_pool(
      std::optional<cluster::PoolConfig> pc, const std::string& serve) {
    if (!pc) return nullptr;
    if (!serve.empty()) pc->fork_workers = false;
    return std::make_unique<cluster::WorkerPool>(*pc);
  }
  static svc::ServiceConfig remote(svc::ServiceConfig cfg,
                                   cluster::WorkerPool* pool) {
    cfg.remote = pool;
    return cfg;
  }
};

/// Replays `trace` and returns everything deterministic it produced —
/// results, metrics and planner calibration — as one JSON document. It
/// is the --replay output, the 1-vs-4-worker selfcheck, and the
/// single-process reference every cluster and chaos run must match byte
/// for byte.
std::string replay_doc(svc::SortService& svc,
                       const std::vector<svc::JobSpec>& trace,
                       const std::string& bench) {
  const std::vector<svc::JobResult> results = svc.replay(trace);
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << bench << "_replay\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    " << results[i].to_json()
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"metrics\": " << svc.metrics().to_json()
     << ",\n  \"calibration\": " << svc.planner().calibration_json()
     << "\n}\n";
  return os.str();
}

std::string replay_doc(const svc::ServiceConfig& cfg,
                       const std::optional<cluster::PoolConfig>& pc,
                       const std::vector<svc::JobSpec>& trace,
                       const std::string& bench) {
  PooledService run(cfg, pc);
  return replay_doc(run.svc, trace, bench);
}

/// The single-process reference document; it must contain an ok job.
std::string reference_doc(const std::vector<svc::JobSpec>& trace,
                          const std::string& bench) {
  std::string ref =
      replay_doc(small_batch_config(trace.size() + 4), {}, trace, bench);
  DSM_CHECK(ref.find("\"status\": \"ok\"") != std::string::npos,
            "reference run produced no ok results");
  return ref;
}

/// --replay PATH: deterministic output only — no worker count, no host
/// clocks — so any --jobs (and --cluster-workers) value writes identical
/// bytes.
std::string replay_file(const Ctx& c, const svc::ServiceConfig& cfg,
                        const std::optional<cluster::PoolConfig>& pc,
                        const std::string& bench) {
  const std::string path = c.args.get("replay", "");
  const std::vector<svc::JobSpec> trace = svc::read_trace(path).value();
  std::string doc = replay_doc(cfg, pc, trace, bench);
  std::cout << "replayed " << trace.size() << " jobs from " << path
            << " with " << cfg.workers << " worker(s)"
            << (pc ? " across " + std::to_string(pc->policy.max_workers) +
                         " worker processes"
                   : "")
            << "\n";
  return doc;
}

void maybe_write_trace(const Ctx& c, const std::vector<svc::JobSpec>& trace) {
  if (!c.args.has("write-trace")) return;
  const std::string path = c.args.get("write-trace", "");
  const Status written = svc::write_trace(path, trace);
  if (!written.ok()) throw Error(written);
  std::cout << "(trace written to " << path << ")\n";
}

/// Live mode: open-loop submission of the whole trace, then drain.
/// Returns the jobs admission refused — counted, not retried: that is the
/// service's backpressure answer to the offered load.
std::size_t run_live(svc::SortService& svc,
                     const std::vector<svc::JobSpec>& trace) {
  svc.start();
  std::size_t rejected = 0;
  for (const svc::JobSpec& job : trace) {
    if (svc.submit(job) != svc::Admission::kAccepted) ++rejected;
  }
  svc.drain();
  return rejected;
}

/// The dispatch accounting identity: every dispatch reaches exactly one
/// terminal (an ack, a cancelled hedge, a worker death or a caught lie),
/// and the acks equal the clean run's dispatch demand — no lost job, no
/// double execution.
void check_accounting(const svc::Metrics::Cluster& cl,
                      std::uint64_t clean_acks, const std::string& cell) {
  DSM_CHECK(cl.dispatches == cl.acks + cl.hedge_losers + cl.worker_deaths +
                                 cl.integrity_violations,
            cell +
                ": dispatch accounting identity broken (a dispatch was "
                "lost or double-settled)");
  DSM_CHECK(cl.acks == clean_acks,
            cell + ": lost or double-executed a job");
}

/// A fresh directory for sentinels, sockets and journals.
std::string scratch_dir(const std::string& tag) {
  std::string path = "/tmp/dsmsort_" + tag + "_XXXXXX";
  DSM_CHECK(::mkdtemp(path.data()) != nullptr, "mkdtemp failed");
  return path;
}

/// True for the first caller, across processes, to create `path` (O_EXCL):
/// makes a worker crash hook fire exactly once even when workers race for
/// the victim job.
bool first_claim(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

/// A strictly validated cluster knob (garbage is a typed error, not
/// silently 0); the flag wins over its environment variable.
int strict_flag(const ArgParser& args, const std::string& flag,
                int (*parse)(const char*, const char*), int (*from_env)()) {
  if (!args.has(flag)) return from_env();
  return parse(("--" + flag).c_str(), args.get(flag, "").c_str());
}

template <typename E>
std::vector<E> enum_list(const ArgParser& args, const std::string& flag,
                         std::span<const EnumEntry<E>> table,
                         const char* what) {
  std::vector<E> out;
  std::istringstream ss(args.get(flag, ""));
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(enum_from_name<E>(table, item, what).value());
  }
  DSM_REQUIRE(!out.empty(), "--" + flag + " needs at least one " + what);
  return out;
}

// --- throughput -------------------------------------------------------
//
// Open-loop submission of a seeded job mix (sizes x procs x all eight key
// distributions). Then a burst of tiny jobs at a capacity-4 queue
// measures admission control. --quick also replays the trace with 1 and 4
// workers and asserts byte-identical output.

std::string run_throughput(const Ctx& c) {
  const ArgParser& args = c.args;
  const bench::BenchEnv& env = c.env;
  const auto njobs =
      static_cast<std::size_t>(args.get_int("njobs", c.quick ? 24 : 60));
  const auto capacity =
      static_cast<std::size_t>(args.get_int("capacity", 64));
  const std::string serve_path = args.get("cluster-serve", "");
  const int cluster_workers =
      strict_flag(args, "cluster-workers", cluster::parse_cluster_workers,
                  cluster::cluster_workers_from_env);
  const int heartbeat_ms =
      strict_flag(args, "heartbeat-ms", cluster::parse_heartbeat_ms,
                  cluster::heartbeat_ms_from_env);
  const int suspect_after =
      strict_flag(args, "suspect-after", cluster::parse_suspect_after,
                  cluster::suspect_after_from_env);
  // Replays always fork: the selfcheck builds several pools, and only one
  // listener can own a serve socket.
  std::optional<cluster::PoolConfig> forked;
  if (cluster_workers > 0) {
    forked = pool_config(cluster_workers, heartbeat_ms, suspect_after);
  }

  if (args.has("replay")) {
    return replay_file(c, service_config(capacity, env.jobs), forked,
                       "service_throughput");
  }

  svc::LoadMix mix = mix_of(env);
  if (args.has("record")) {
    mix.records = enum_list<keys::RecordType>(
        args, "record", keys::kRecordTypeNames, "record type");
  }
  if (args.has("algo")) {
    // Pin every generated job's algorithm (planner bypass for A/B runs);
    // a list draws per job, like --record.
    mix.algos =
        enum_list<sort::Algo>(args, "algo", sort::kAlgoNames, "algorithm");
  }
  const std::vector<svc::JobSpec> trace = svc::make_trace(env.seed, njobs, mix);
  maybe_write_trace(c, trace);

  std::optional<cluster::PoolConfig> live_pool = forked;
  if (!serve_path.empty()) {
    live_pool = pool_config(cluster_workers > 0 ? cluster_workers : 256,
                            heartbeat_ms, suspect_after);
  }
  PooledService live(service_config(capacity, env.jobs), live_pool,
                     serve_path);
  svc::SortService& svc = live.svc;
  if (live.pool != nullptr) {
    std::cout << (serve_path.empty()
                      ? "  cluster: " + std::to_string(cluster_workers) +
                            " forked worker process(es)\n"
                      : "  cluster: serving external workers on " +
                            serve_path + "\n");
  }
  const double t0 = now_s();
  const std::size_t live_rejected = run_live(svc, trace);
  const double live_wall = now_s() - t0;
  if (live.pool != nullptr) {
    live.pool->shutdown();
    const svc::Metrics::Cluster cl = svc.metrics().cluster();
    std::cout << "  cluster: " << cl.dispatches << " dispatches, " << cl.acks
              << " acks, " << cl.worker_deaths << " worker death(s), "
              << cl.redispatches << " re-dispatch(es), " << cl.hedges_issued
              << " hedge(s), " << cl.integrity_violations
              << " integrity violation(s), " << cl.workers_quarantined
              << " quarantined\n";
  }
  const std::vector<svc::JobResult> results = svc.take_results();

  const std::vector<double> virt_us = ok_virt_us(results);
  const std::size_t failed = results.size() - virt_us.size();
  const Tail host = tail_of(ok_values(
      results, [](const svc::JobResult& r) { return r.host_latency_ms; }));
  const Tail virt = tail_of(virt_us);
  const svc::Metrics::Counters m = svc.metrics().counters();
  const svc::Metrics::Accuracy acc = svc.metrics().accuracy();
  const double throughput = ratio(m.completed, live_wall);
  const double hit_rate = ratio(m.plan_hits, m.audited);
  const bool calibration_improved = acc.mean_rel_err_cal < acc.mean_rel_err_raw;

  std::cout << "  live: " << m.completed << "/" << trace.size() << " jobs in "
            << fmt_fixed(live_wall, 2) << "s (" << fmt_fixed(throughput, 2)
            << " jobs/s, " << failed << " failed, " << live_rejected
            << " rejected)\n"
            << "  host latency  p50 " << fmt_fixed(host.p50, 1) << " ms  p99 "
            << fmt_fixed(host.p99, 1) << " ms\n"
            << "  virtual time  p50 " << fmt_fixed(virt.p50 / 1e3, 2)
            << " ms  p99 " << fmt_fixed(virt.p99 / 1e3, 2) << " ms\n"
            << "  plan accuracy: mean rel err raw "
            << fmt_fixed(acc.mean_rel_err_raw, 3) << " -> calibrated "
            << fmt_fixed(acc.mean_rel_err_cal, 3) << " (first half "
            << fmt_fixed(acc.first_half_cal, 3) << ", second half "
            << fmt_fixed(acc.second_half_cal, 3) << ")\n"
            << "  plan audits: " << m.audited << " (hit rate "
            << fmt_fixed(hit_rate, 2) << ")\n";

  // Burst phase: firehose tiny jobs at a deliberately small queue to
  // measure admission control under overload.
  const std::size_t burst_capacity = 4;
  svc::SortService burst(service_config(burst_capacity, env.jobs));
  svc::LoadMix tiny;
  tiny.sizes = {1u << 12};
  tiny.procs = {4};
  (void)run_live(burst, svc::make_trace(env.seed + 1, 32, tiny));
  const svc::Metrics::Counters bc = burst.metrics().counters();
  const double burst_rejection_rate = ratio(bc.rejected_full, bc.submitted);
  std::cout << "  burst (capacity " << burst_capacity << "): "
            << bc.rejected_full << "/" << bc.submitted
            << " rejected with backpressure\n";

  // Quick mode doubles as the machine-checked acceptance run: replaying
  // the trace must be byte-identical for 1 and 4 workers, and online
  // calibration must not degrade accuracy (the short quick trace gives
  // the EWMA little to learn from, so "strictly better" is asserted on
  // the full run's BENCH_service.json, not here).
  if (c.quick) {
    DSM_CHECK(replay_doc(service_config(capacity, 1), forked, trace,
                         "service_throughput") ==
                  replay_doc(service_config(capacity, 4), forked, trace,
                             "service_throughput"),
              "replay output differs between 1 and 4 workers");
    DSM_CHECK(acc.mean_rel_err_cal <= acc.mean_rel_err_raw * 1.1,
              "calibration degraded prediction accuracy");
    std::cout << "  replay selfcheck: 1 vs 4 workers byte-identical\n";
  }

  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"service_throughput\",\n"
     << "  \"config\": {\"njobs\": " << njobs << ", \"capacity\": "
     << capacity << ", \"workers\": " << env.jobs
     << ", \"cluster_workers\": " << cluster_workers << ", \"seed\": "
     << env.seed << ", \"quick\": " << (c.quick ? "true" : "false") << "},\n"
     << "  \"live\": {\"completed\": " << m.completed << ", \"failed\": "
     << m.failed << ", \"rejected_full\": " << m.rejected_full
     << ", \"wall_s\": " << fmt_fixed(live_wall, 3)
     << ", \"throughput_jobs_per_s\": " << fmt_fixed(throughput, 3)
     << ", \"host_latency_ms\": {\"p50\": " << fmt_fixed(host.p50, 3)
     << ", \"p99\": " << fmt_fixed(host.p99, 3)
     << "}, \"virtual_us\": {\"p50\": " << fmt_fixed(virt.p50, 3)
     << ", \"p99\": " << fmt_fixed(virt.p99, 3) << "}},\n"
     << "  \"plan_accuracy\": {\"count\": " << acc.count
     << ", \"mean_rel_err_raw\": " << fmt_fixed(acc.mean_rel_err_raw, 4)
     << ", \"mean_rel_err_calibrated\": " << fmt_fixed(acc.mean_rel_err_cal, 4)
     << ", \"first_half_calibrated\": " << fmt_fixed(acc.first_half_cal, 4)
     << ", \"second_half_calibrated\": " << fmt_fixed(acc.second_half_cal, 4)
     << ", \"calibration_improved\": "
     << (calibration_improved ? "true" : "false") << "},\n"
     << "  \"plan_audit\": {\"audited\": " << m.audited
     << ", \"plan_hits\": " << m.plan_hits << ", \"hit_rate\": "
     << fmt_fixed(hit_rate, 4) << "},\n"
     << "  \"burst\": {\"capacity\": " << burst_capacity
     << ", \"submitted\": " << bc.submitted << ", \"rejected_full\": "
     << bc.rejected_full << ", \"completed\": " << bc.completed
     << ", \"rejection_rate\": " << fmt_fixed(burst_rejection_rate, 4)
     << "},\n"
     << "  \"replay_selfcheck\": "
     << (c.quick ? "\"byte-identical\"" : "\"not run (pass --quick)\"")
     << ",\n"
     << "  \"calibration\": " << svc.planner().calibration_json() << ",\n"
     << "  \"metrics\": " << svc.metrics().to_json() << "\n"
     << "}\n";
  return js.str();
}

// --- faults -----------------------------------------------------------
//
// Three phases:
//   1. Unloaded baseline — the job mix replayed with no faults and no
//      deadlines; its virtual-time percentiles anchor the deadlines.
//   2. Overload — a burst of 2x queue capacity jobs, every job carrying a
//      virtual deadline (the unloaded p50) and a per-site fault rate; a
//      quarter of the jobs are critical-priority (exempt from shedding).
//      The p99 of jobs the service accepts and completes on time must stay
//      within 2x the unloaded p99 — the deadline shedder eats the tail
//      instead of serving it late (checked).
//   3. Replay selfcheck — the overload trace replayed with the same fault
//      seed at 1 and 4 workers must produce byte-identical JSON: faults,
//      retries, sheds, and deadline misses are all deterministic.

svc::ServiceConfig fault_config(std::size_t capacity, int workers,
                                std::uint64_t fault_seed, double fault_rate) {
  svc::ServiceConfig cfg = service_config(capacity, workers);
  cfg.faults.seed = fault_seed;
  cfg.faults.rate = fault_rate;
  // A sort attempt is evaluated at every phase mark, so a 10% per-site
  // rate compounds into a large per-attempt failure probability; give the
  // retry loop one extra attempt over the production default.
  cfg.max_attempts = 4;
  return cfg;
}

std::string run_faults(const Ctx& c) {
  const ArgParser& args = c.args;
  const bench::BenchEnv& env = c.env;
  const auto njobs =
      static_cast<std::size_t>(args.get_int("njobs", c.quick ? 16 : 48));
  const auto capacity =
      static_cast<std::size_t>(args.get_int("capacity", c.quick ? 8 : 16));
  const double fault_rate = args.get_double("fault-rate", 0.10);
  const std::uint64_t fault_seed = env.seed + 77;

  if (args.has("replay")) {
    return replay_file(
        c, fault_config(capacity, env.jobs, fault_seed, fault_rate), {},
        "service_faults");
  }

  // Phase 1: unloaded baseline — no faults, no deadlines, replay path
  // (synchronous rounds, no queueing): pure execution percentiles.
  const svc::LoadMix mix = mix_of(env);
  const std::vector<svc::JobSpec> base_trace =
      svc::make_trace(env.seed, njobs, mix);
  svc::SortService unloaded(fault_config(capacity, env.jobs, 0, 0));
  const std::vector<double> base_us = ok_virt_us(unloaded.replay(base_trace));
  const Tail base = tail_of(base_us);
  DSM_CHECK(!base_us.empty(), "unloaded baseline produced no ok jobs");
  std::cout << "  unloaded: " << base_us.size() << "/" << base_trace.size()
            << " ok, virtual p50 " << fmt_fixed(base.p50, 1) << " us, p99 "
            << fmt_fixed(base.p99, 1) << " us\n";

  // Phase 2: overload — 2x admission capacity in one burst, deadlines at
  // the unloaded p50 (so the expensive half of the mix cannot fit), 25%
  // critical jobs, and the fault matrix armed at every site.
  const std::size_t overload_jobs = 2 * capacity;
  svc::LoadMix overload_mix = mix;
  overload_mix.deadlines_us = {
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(base.p50))};
  overload_mix.priorities = {0, 0, 0, svc::kCriticalPriority};
  const std::vector<svc::JobSpec> overload_trace =
      svc::make_trace(env.seed + 1, overload_jobs, overload_mix);
  maybe_write_trace(c, overload_trace);

  svc::SortService over(
      fault_config(capacity, env.jobs, fault_seed, fault_rate));
  const std::size_t live_rejected = run_live(over, overload_trace);
  const svc::Metrics::Counters oc = over.metrics().counters();
  const std::vector<double> over_us = ok_virt_us(over.take_results());
  const Tail overload = tail_of(over_us);
  const double shed_rate = ratio(oc.shed, oc.accepted);
  const double retry_success_rate =
      ratio(oc.retry_successes, oc.retry_attempts);
  std::cout << "  overload (" << overload_jobs << " jobs at capacity "
            << capacity << ", fault rate " << fmt_fixed(fault_rate, 2)
            << "): " << over_us.size() << " ok, " << oc.shed << " shed, "
            << oc.deadline_miss << " deadline-miss, " << oc.failed
            << " failed, " << live_rejected << " rejected\n"
            << "  overload ok jobs: virtual p50 " << fmt_fixed(overload.p50, 1)
            << " us, p99 " << fmt_fixed(overload.p99, 1) << " us (unloaded p99 "
            << fmt_fixed(base.p99, 1) << " us)\n"
            << "  retries: " << oc.retry_attempts << " attempts, "
            << oc.retry_successes << " jobs saved (success rate "
            << fmt_fixed(retry_success_rate, 2) << ")\n";

  // The acceptance gate: what the service *serves* under overload must
  // not degrade past 2x the unloaded tail — shedding, not late service,
  // absorbs the excess.
  const bool p99_bounded = over_us.empty() || overload.p99 <= 2 * base.p99;
  DSM_CHECK(p99_bounded,
            "overload p99 of accepted jobs exceeded 2x the unloaded p99");
  DSM_CHECK(oc.shed > 0,
            "overload with tight deadlines shed nothing — the predictive "
            "shedder is not engaging");

  // Phase 3: replay determinism — same trace, same fault seed, 1 vs 4
  // workers, byte-identical output (results, metrics, calibration).
  DSM_CHECK(replay_doc(fault_config(capacity, 1, fault_seed, fault_rate), {},
                       overload_trace, "service_faults") ==
                replay_doc(fault_config(capacity, 4, fault_seed, fault_rate),
                           {}, overload_trace, "service_faults"),
            "replay output differs between 1 and 4 workers");
  std::cout << "  replay selfcheck: 1 vs 4 workers byte-identical\n";

  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"service_faults\",\n"
     << "  \"config\": {\"njobs\": " << njobs
     << ", \"overload_jobs\": " << overload_jobs
     << ", \"capacity\": " << capacity << ", \"workers\": " << env.jobs
     << ", \"seed\": " << env.seed << ", \"fault_seed\": " << fault_seed
     << ", \"fault_rate\": " << fmt_fixed(fault_rate, 3)
     << ", \"deadline_us\": " << overload_mix.deadlines_us[0]
     << ", \"quick\": " << (c.quick ? "true" : "false") << "},\n"
     << "  \"unloaded\": {\"ok\": " << base_us.size()
     << ", \"virtual_us\": {\"p50\": " << fmt_fixed(base.p50, 3)
     << ", \"p99\": " << fmt_fixed(base.p99, 3) << "}},\n"
     << "  \"overload\": {\"offered\": " << overload_jobs
     << ", \"ok\": " << over_us.size() << ", \"shed\": " << oc.shed
     << ", \"deadline_miss\": " << oc.deadline_miss
     << ", \"failed\": " << oc.failed
     << ", \"rejected_full\": " << oc.rejected_full
     << ", \"rejected_fault\": " << oc.rejected_fault
     << ", \"shed_rate\": " << fmt_fixed(shed_rate, 4)
     << ", \"retry_attempts\": " << oc.retry_attempts
     << ", \"retry_successes\": " << oc.retry_successes
     << ", \"retry_success_rate\": " << fmt_fixed(retry_success_rate, 4)
     << ", \"virtual_us\": {\"p50\": " << fmt_fixed(overload.p50, 3)
     << ", \"p99\": " << fmt_fixed(overload.p99, 3)
     << "}, \"p99_within_2x_unloaded\": " << (p99_bounded ? "true" : "false")
     << "},\n"
     << "  \"replay_selfcheck\": \"byte-identical\",\n"
     << "  \"metrics\": " << over.metrics().to_json() << "\n"
     << "}\n";
  return js.str();
}

// --- cluster ----------------------------------------------------------
//
// Two audited experiments against the single-process reference of the
// same seeded trace:
//   1. Replay identity — the clustered service (in-process master, forked
//      worker processes over the framed socket transport) reproduces the
//      reference byte for byte for every worker count in {1, 2, 4}.
//   2. Kill-worker matrix — for each victim job, one worker _exit()s
//      mid-phase while running it (a SIGKILL-grade death on a live
//      socket). The master re-dispatches the attempt to a fresh worker;
//      the run stays byte-identical (exact planner calibration), and the
//      dispatch accounting identity holds with zero hedges and zero liars:
//      dispatches == acks + 1 death, acks == the uncrashed run's demand.

struct KillCell {
  std::uint64_t victim_seq = 0;
  svc::Metrics::Cluster cl;
  double host_ms = 0;
};

std::string run_cluster(const Ctx& c) {
  const bench::BenchEnv& env = c.env;
  const auto njobs =
      static_cast<std::size_t>(c.args.get_int("njobs", c.quick ? 6 : 10));
  const std::vector<svc::JobSpec> trace =
      svc::make_trace(env.seed, njobs, mix_of(env));
  const std::string reference = reference_doc(trace, "service_cluster");

  // Experiment 1: worker-count sweep.
  std::uint64_t sweep_dispatches = 0;
  for (const int workers : {1, 2, 4}) {
    PooledService run(small_batch_config(njobs + 4), pool_config(workers));
    const double t0 = now_s();
    const std::string doc = replay_doc(run.svc, trace, "service_cluster");
    const double ms = (now_s() - t0) * 1e3;
    DSM_CHECK(doc == reference,
              "cluster output diverged from the single-process reference "
              "at workers=" +
                  std::to_string(workers));
    const svc::Metrics::Cluster cl = run.svc.metrics().cluster();
    DSM_CHECK(cl.worker_deaths == 0, "unexpected worker death");
    DSM_CHECK(cl.dispatches == cl.acks, "dispatch without ack");
    sweep_dispatches = cl.dispatches;
    std::cout << "  workers=" << workers << ": byte-identical replay, "
              << cl.dispatches << " dispatches in " << fmt_fixed(ms, 1)
              << " ms\n";
  }

  // Experiment 2: kill-worker matrix. One cell per victim job; the first
  // worker to reach that job dies mid-phase, exactly once.
  const std::string root = scratch_dir("cluster");
  std::vector<KillCell> cells;
  std::string last_cluster_json;
  for (std::uint64_t victim = 0; victim < njobs; ++victim) {
    const std::string sentinel = root + "/killed_" + std::to_string(victim);
    cluster::PoolConfig pc = pool_config(2);
    pc.worker.crash_hook = [sentinel, victim](const char* /*site*/,
                                              std::uint64_t seq) {
      if (seq == victim && first_claim(sentinel)) ::_exit(137);
    };
    PooledService run(small_batch_config(njobs + 4), pc);
    const double t0 = now_s();
    const std::string doc = replay_doc(run.svc, trace, "service_cluster");
    const svc::Metrics::Cluster cl = run.svc.metrics().cluster();
    cells.push_back(KillCell{victim, cl, (now_s() - t0) * 1e3});

    // The crash must have happened, been re-dispatched, and changed
    // nothing observable.
    const std::string name = "kill victim " + std::to_string(victim);
    DSM_CHECK(doc == reference,
              name + ": crash re-dispatch perturbed deterministic output");
    DSM_CHECK(cl.worker_deaths == 1,
              name + ": expected exactly one worker death");
    DSM_CHECK(cl.redispatches == 1,
              name + ": expected exactly one re-dispatch");
    DSM_CHECK(cl.hedges_issued == 0 && cl.integrity_violations == 0,
              name + ": no hedge or integrity strike may settle a dispatch");
    check_accounting(cl, sweep_dispatches, name);
    DSM_CHECK(run.pool->alive_workers() == 2, "dead worker was not replaced");
    last_cluster_json = run.svc.metrics().cluster_json();
  }
  std::cout << "  kill matrix: " << cells.size()
            << " victims, all byte-identical after re-dispatch\n";

  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"service_cluster\",\n"
     << "  \"config\": {\"njobs\": " << njobs << ", \"seed\": " << env.seed
     << ", \"worker_counts\": [1, 2, 4]"
     << ", \"quick\": " << (c.quick ? "true" : "false") << "},\n"
     << "  \"invariants\": {\"replay_byte_identical\": true, "
     << "\"no_lost_job\": true, "
     << "\"no_double_execution\": true, "
     << "\"calibration_byte_identical\": true},\n"
     << "  \"dispatches_per_run\": " << sweep_dispatches << ",\n"
     << "  \"kill_cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const KillCell& k = cells[i];
    js << "    {\"victim_seq\": " << k.victim_seq << ", \"deaths\": "
       << k.cl.worker_deaths << ", \"redispatches\": " << k.cl.redispatches
       << ", \"dispatches\": " << k.cl.dispatches << ", \"acks\": "
       << k.cl.acks << ", \"host_ms\": " << fmt_fixed(k.host_ms, 1) << "}"
       << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"last_run_cluster_metrics\": " << last_cluster_json << "\n"
     << "}\n";
  return js.str();
}

// --- crash ------------------------------------------------------------
//
// For every (seed, crash site) cell, a child process runs a durable
// service over a seeded trace and _exit()s inside the durability crash
// hook at a named journal/snapshot/execution site. The parent restarts
// the service (up to a bounded number of incarnations) until a run
// completes cleanly, and audits the journal the incarnations left behind
// against a non-durable reference run of the same trace:
//   * no lost job    — every admitted seq reaches exactly one terminal
//   * no double run  — a completed job never journals a second terminal
//   * exact state    — the recovered planner calibration is byte-identical
//                      to the uncrashed reference
//   * poison caught  — a job that kills the process at the same site twice
//                      is quarantined, with its attempt history on file

constexpr std::uint64_t kAnySeq = ~std::uint64_t{0};
constexpr int kMaxIncarnations = 8;

struct CrashSpec {
  std::string site;             // substring of the hook site
  std::uint64_t seq = kAnySeq;  // restrict to one job's records
  int fire_on = 1;              // die on the Nth matching fire
};

svc::ServiceConfig durable_config(const std::string& dir,
                                  std::size_t capacity) {
  svc::ServiceConfig cfg = small_batch_config(capacity);
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every_batches = 1;
  cfg.durability.keep_all_segments = true;  // the audit needs full history
  return cfg;
}

/// One service incarnation in a forked child: recover, submit the whole
/// trace (duplicates rejected idempotently), drain. Exit codes: 0 clean,
/// 42 died at the crash site, 99 unexpected exception.
int run_incarnation(const std::string& dir,
                    const std::vector<svc::JobSpec>& trace,
                    const CrashSpec* crash) {
  const pid_t pid = fork();
  DSM_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    int fires = 0;
    try {
      svc::ServiceConfig cfg = durable_config(dir, trace.size() + 4);
      if (crash != nullptr) {
        cfg.durability.crash_hook = [&fires, crash](const char* site,
                                                    std::uint64_t seq) {
          if (crash->seq != kAnySeq && seq != crash->seq) return;
          if (std::strstr(site, crash->site.c_str()) == nullptr) return;
          if (++fires >= crash->fire_on) ::_exit(42);
        };
      }
      svc::SortService service(cfg);
      for (const svc::JobSpec& j : trace) service.submit(j);
      service.start();
      service.drain();
      ::_exit(0);
    } catch (...) {
      ::_exit(99);
    }
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::map<std::uint64_t, std::vector<svc::JournalRecord>> terminals_by_seq(
    const std::string& dir) {
  std::map<std::uint64_t, std::vector<svc::JournalRecord>> out;
  for (const std::string& seg : svc::list_segments(dir)) {
    for (svc::JournalRecord& r : svc::read_segment(seg).records) {
      if (r.type == svc::RecordType::kTerminal) {
        out[r.seq].push_back(std::move(r));
      }
    }
  }
  return out;
}

struct CrashCell {
  std::string site;
  std::uint64_t seed = 0;
  int crashes = 0;         // incarnations that died at the site
  double recovery_ms = 0;  // verify-pass recovery time
};

std::string run_crash(const Ctx& c) {
  const bench::BenchEnv& env = c.env;
  const int nseeds =
      static_cast<int>(c.args.get_int("nseeds", c.quick ? 1 : 3));
  const auto njobs =
      static_cast<std::size_t>(c.args.get_int("njobs", c.quick ? 6 : 10));
  const std::string root = scratch_dir("crash");

  const struct {
    const char* site;
    int fire_on;
  } kSites[] = {
      {"journal.admit.before-fsync", 3},
      {"journal.admit.after-fsync", 5},
      {"journal.planned.before-fsync", 2},
      {"journal.planned.after-fsync", 4},
      {"journal.attempt-start.before-fsync", 3},
      {"journal.attempt-start.after-fsync", 5},
      {"journal.mark.before-fsync", 9},
      {"journal.mark.after-fsync", 17},
      {"journal.terminal.before-fsync", 2},
      {"journal.terminal.after-fsync", 4},
      {"snapshot.before-rename", 1},
      {"snapshot.after-rename", 2},
      {"exec.", 4},
  };
  const svc::LoadMix mix = mix_of(env);

  std::vector<CrashCell> outcomes;
  std::vector<double> recovery_ms;
  int cell_index = 0;
  for (int s = 0; s < nseeds; ++s) {
    const std::uint64_t seed = env.seed + static_cast<std::uint64_t>(s);
    const std::vector<svc::JobSpec> trace = svc::make_trace(seed, njobs, mix);
    svc::SortService ref(small_batch_config(trace.size() + 4));
    ref.replay(trace);
    const std::string reference = ref.planner().calibration_json();

    for (const auto& site : kSites) {
      const std::string dir = root + "/cell_" + std::to_string(cell_index++);
      ::mkdir(dir.c_str(), 0755);
      const CrashSpec crash{site.site, kAnySeq, site.fire_on};

      // Crash once, then restart until an incarnation finishes clean.
      // (Later incarnations run without the hook: a cell models one
      // transient crash, not a permanently poisoned process.)
      CrashCell cell{site.site, seed, 1, 0};
      DSM_CHECK(run_incarnation(dir, trace, &crash) == 42,
                std::string("site never fired: ") + site.site);
      for (int incarnations = 1;; ++incarnations) {
        DSM_CHECK(incarnations < kMaxIncarnations,
                  "service did not reach a clean run");
        const int rc = run_incarnation(dir, trace, nullptr);
        if (rc == 0) break;
        DSM_CHECK(rc == 42, "incarnation failed with unexpected error");
        ++cell.crashes;
      }

      // Audit: one terminal per admitted seq, all ok.
      const auto terms = terminals_by_seq(dir);
      DSM_CHECK(terms.size() == trace.size(),
                "admitted job lost across the crash");
      for (const auto& [seq, records] : terms) {
        DSM_CHECK(records.size() == 1,
                  "seq " + std::to_string(seq) +
                      " journaled more than one terminal (double run)");
        DSM_CHECK(records[0].result.status == svc::JobStatus::kOk,
                  "recovered job did not complete ok");
      }

      // Audit: recovered calibration is byte-identical to the uncrashed
      // reference, and recovery is cheap.
      svc::SortService verify(durable_config(dir, trace.size() + 4));
      DSM_CHECK(verify.planner().calibration_json() == reference,
                "recovered calibration diverged from the reference");
      DSM_CHECK(verify.metrics().counters().completed == trace.size(),
                "completion counters did not survive recovery");
      cell.recovery_ms = verify.recovery_report().recovery_host_ms;
      recovery_ms.push_back(cell.recovery_ms);
      verify.drain();
      outcomes.push_back(cell);
    }
    std::cout << "  seed " << seed << ": " << std::size(kSites)
              << " crash sites recovered to reference state\n";
  }

  // Poison-job cell: one job kills the process at the same execution site
  // in every incarnation; after two charged crashes the service
  // quarantines it and completes everything else.
  const std::vector<svc::JobSpec> ptrace =
      svc::make_trace(env.seed + 100, njobs, mix);
  const std::string pdir = root + "/poison";
  ::mkdir(pdir.c_str(), 0755);
  const std::uint64_t poison_seq = 2 % njobs;
  const CrashSpec poison{"exec.", poison_seq, 1};
  int poison_crashes = 0;
  int rc;
  while ((rc = run_incarnation(pdir, ptrace, &poison)) == 42) {
    ++poison_crashes;
    DSM_CHECK(poison_crashes < kMaxIncarnations,
              "poison job was never quarantined");
  }
  DSM_CHECK(rc == 0, "poison run ended with unexpected error");
  DSM_CHECK(poison_crashes == 2,
            "expected exactly 2 crashes before quarantine, got " +
                std::to_string(poison_crashes));
  const auto pterms = terminals_by_seq(pdir);
  DSM_CHECK(pterms.size() == ptrace.size(), "poison cell lost a job");
  for (const auto& [seq, records] : pterms) {
    DSM_CHECK(records.size() == 1, "poison cell double-ran a job");
    if (seq == poison_seq) {
      DSM_CHECK(
          records[0].result.final_status.code() == StatusCode::kQuarantined,
          "poison job's terminal is not kQuarantined");
    } else {
      DSM_CHECK(records[0].result.status == svc::JobStatus::kOk,
                "bystander job did not complete ok");
    }
  }
  Result<std::string> qfile = try_read_file(svc::quarantine_path(pdir));
  DSM_CHECK(qfile.ok(), "quarantine file missing");
  DSM_CHECK(qfile->find("\"history\"") != std::string::npos,
            "quarantine entry has no attempt history");
  std::cout << "  poison job quarantined after " << poison_crashes
            << " crashes; " << (ptrace.size() - 1)
            << " bystanders completed\n";

  const auto [min_it, max_it] =
      std::minmax_element(recovery_ms.begin(), recovery_ms.end());
  const double rmin = recovery_ms.empty() ? 0 : *min_it;
  const double rmax = recovery_ms.empty() ? 0 : *max_it;
  double rmean = 0;
  for (const double x : recovery_ms) rmean += x;
  if (!recovery_ms.empty()) rmean /= static_cast<double>(recovery_ms.size());
  std::cout << "  recovery time over " << recovery_ms.size() << " cells: min "
            << fmt_fixed(rmin, 2) << " ms, mean " << fmt_fixed(rmean, 2)
            << " ms, max " << fmt_fixed(rmax, 2) << " ms\n";

  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"service_crash\",\n"
     << "  \"config\": {\"nseeds\": " << nseeds << ", \"njobs\": " << njobs
     << ", \"seed\": " << env.seed << ", \"crash_sites\": "
     << std::size(kSites) << ", \"quick\": " << (c.quick ? "true" : "false")
     << "},\n"
     << "  \"invariants\": {\"no_lost_job\": true, "
     << "\"no_double_execution\": true, "
     << "\"calibration_byte_identical\": true, "
     << "\"poison_quarantined\": true},\n"
     << "  \"poison\": {\"crashes_before_quarantine\": " << poison_crashes
     << ", \"bystanders_ok\": " << (ptrace.size() - 1) << "},\n"
     << "  \"recovery_ms\": {\"cells\": " << recovery_ms.size()
     << ", \"min\": " << fmt_fixed(rmin, 3)
     << ", \"mean\": " << fmt_fixed(rmean, 3)
     << ", \"max\": " << fmt_fixed(rmax, 3) << "},\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CrashCell& o = outcomes[i];
    js << "    {\"seed\": " << o.seed << ", \"site\": \"" << o.site
       << "\", \"crashes\": " << o.crashes
       << ", \"recovery_ms\": " << fmt_fixed(o.recovery_ms, 3) << "}"
       << (i + 1 < outcomes.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  return js.str();
}

// --- chaos ------------------------------------------------------------
//
// Gray failures (DESIGN.md §12) — the ones that don't announce themselves
// — against the single-process reference of each seed's trace:
//   1. stall  — a worker raises SIGSTOP mid-phase (alive, socket open,
//               nothing moves). The heartbeat lattice must turn silence
//               into a hedge, the hedge must win, and the run must stay
//               byte-identical.
//   2. lie    — a worker reports a bit-flipped input fingerprint with an
//               otherwise flawless protocol. The master must catch it end
//               to end, quarantine exactly that worker (zero innocent
//               bystanders), re-dispatch, and stay byte-identical.
//   3. wal    — every WAL write/fsync fails (ENOSPC-grade, via the fsio
//               fault shim) under a durable service. It must keep
//               serving: all jobs ack, results and calibration match a
//               healthy non-durable run, and Metrics counts the degraded
//               appends and non-durable jobs.
//   4. mixed  — one worker _exit()s on one victim job and another SIGSTOPs
//               on a second, in the same run.
// Every clustered cell keeps the dispatch accounting identity.

struct ChaosCell {
  std::uint64_t seed = 0;
  const char* kind = "";
  svc::Metrics::Cluster cl;
  std::uint64_t degraded_appends = 0;
  std::uint64_t non_durable_jobs = 0;
  double host_ms = 0;
};

void wait_alive(const cluster::WorkerPool& pool, int want) {
  for (int i = 0; i < 5000; ++i) {
    if (pool.alive_workers() >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  DSM_CHECK(false, "external workers never connected");
}

/// An in-process worker thread connected to `path`.
std::jthread socket_worker(const std::string& path, const char* label,
                           bool lie) {
  return std::jthread([path, label, lie] {
    Result<cluster::Channel> ch = cluster::connect_unix(path);
    if (!ch.ok()) return;
    cluster::WorkerOptions opts;
    opts.label = label;
    opts.lie = lie;
    cluster::worker_main(std::move(*ch), opts);
  });
}

/// Replays `trace` on `run` and checks it against the reference and the
/// accounting identity; returns the cell (counters + host time).
ChaosCell replay_cell(PooledService& run,
                      const std::vector<svc::JobSpec>& trace,
                      const std::string& reference, std::uint64_t base_acks,
                      std::uint64_t seed, const char* kind) {
  const double t0 = now_s();
  const std::string doc = replay_doc(run.svc, trace, "service_chaos");
  ChaosCell cell;
  cell.seed = seed;
  cell.kind = kind;
  cell.host_ms = (now_s() - t0) * 1e3;
  cell.cl = run.svc.metrics().cluster();
  const std::string name =
      std::string(kind) + " (seed " + std::to_string(seed) + ")";
  DSM_CHECK(doc == reference, name + ": diverged from the reference");
  check_accounting(cell.cl, base_acks, name);
  return cell;
}

std::string run_chaos(const Ctx& c) {
  const bench::BenchEnv& env = c.env;
  const auto njobs =
      static_cast<std::size_t>(c.args.get_int("njobs", c.quick ? 5 : 8));
  const int nseeds = c.quick ? 1 : 2;
  const std::string root = scratch_dir("chaos");

  std::vector<ChaosCell> cells;
  for (int s = 0; s < nseeds; ++s) {
    const std::uint64_t seed = env.seed + static_cast<std::uint64_t>(s);
    const std::string tag = std::to_string(seed);
    const std::vector<svc::JobSpec> trace =
        svc::make_trace(seed, njobs, mix_of(env));
    const std::string reference = reference_doc(trace, "service_chaos");
    const svc::ServiceConfig cfg = small_batch_config(njobs + 4);

    // Clean clustered baseline with the health protocol armed but a
    // suspect budget no scheduler hiccup can reach: pins the dispatch
    // demand (`acks` must equal this in every chaos cell) and proves
    // heartbeats alone do not perturb the bytes.
    std::uint64_t base_acks = 0;
    {
      PooledService run(cfg, pool_config(2, 10, 250));
      DSM_CHECK(replay_doc(run.svc, trace, "service_chaos") == reference,
                "heartbeat-armed clean run diverged from reference");
      const svc::Metrics::Cluster cl = run.svc.metrics().cluster();
      DSM_CHECK(cl.dispatches == cl.acks, "clean run lost a dispatch");
      DSM_CHECK(cl.integrity_violations == 0,
                "clean run flagged an integrity violation");
      base_acks = cl.acks;
    }

    // Cell 1: SIGSTOP victim (stall -> suspect -> hedge).
    {
      const std::string sentinel = root + "/stall_" + tag;
      const std::uint64_t victim = njobs / 2;
      cluster::PoolConfig pc = pool_config(2, 20, 2);
      pc.worker.crash_hook = [sentinel, victim](const char* /*site*/,
                                                std::uint64_t seq) {
        if (seq == victim && first_claim(sentinel)) ::raise(SIGSTOP);
      };
      PooledService run(cfg, pc);
      const ChaosCell cell =
          replay_cell(run, trace, reference, base_acks, seed, "stall");
      DSM_CHECK(cell.cl.hedges_issued >= 1, "stalled worker was never hedged");
      DSM_CHECK(cell.cl.hedges_won >= 1, "no hedge ever won");
      DSM_CHECK(cell.cl.integrity_violations == 0,
                "stall cell flagged a phantom integrity violation");
      DSM_CHECK(cell.cl.workers_quarantined == 0,
                "stall cell quarantined an innocent worker");
      cells.push_back(cell);
    }

    // Cell 2: lying worker (end-to-end integrity).
    {
      const std::string path = root + "/liar_" + tag + ".sock";
      cluster::PoolConfig pc = pool_config(2, 25, 40);
      pc.integrity_strikes = 1;
      // Declared before the pool, so on every exit the pool shuts down
      // first — closing the channels worker_main waits on — and then the
      // threads join.
      std::vector<std::jthread> workers;
      PooledService run(cfg, pc, path);
      workers.push_back(socket_worker(path, "liar", true));
      wait_alive(*run.pool, 1);  // the liar holds slot 0 -> leased first
      workers.push_back(socket_worker(path, "honest", false));
      wait_alive(*run.pool, 2);
      const ChaosCell cell =
          replay_cell(run, trace, reference, base_acks, seed, "lie");
      DSM_CHECK(cell.cl.integrity_violations == 1,
                "expected exactly one caught lie, got " +
                    std::to_string(cell.cl.integrity_violations));
      DSM_CHECK(cell.cl.workers_quarantined == 1,
                "the liar was not quarantined");
      DSM_CHECK(run.pool->quarantined_workers() == 1,
                "quarantine hit an innocent bystander");
      DSM_CHECK(cell.cl.worker_deaths == 0, "lying is not dying");
      cells.push_back(cell);
    }

    // Cell 3: ENOSPC on the WAL (degraded durability).
    {
      // Healthy non-durable live run: the results and calibration the
      // degraded run must still produce. (Live mode stamps host latency,
      // so the comparison is field-wise, not to_json.) Both runs queue the
      // whole trace before start(): calibrated planning is batch-geometry-
      // dependent by design (plans see whatever observations earlier
      // batches folded in), and a WAL-degraded submit path paces
      // admissions differently — pinning the geometry isolates the
      // invariant under test to durability.
      svc::SortService healthy(cfg);
      for (const svc::JobSpec& j : trace) healthy.submit(j);
      healthy.start();
      healthy.drain();
      const std::vector<svc::JobResult> want = healthy.take_results();
      const std::string want_cal = healthy.planner().calibration_json();

      svc::ServiceConfig durable_cfg = cfg;
      durable_cfg.durability.dir = root + "/wal_" + tag;
      svc::SortService durable(durable_cfg);  // journal opens healthy
      FsFaultConfig faults;
      faults.seed = seed;
      faults.rate = 1.0;  // then every WAL write/fsync fails
      set_fs_fault_config(faults);
      const double t0 = now_s();
      for (const svc::JobSpec& j : trace) {
        DSM_CHECK(durable.submit(j) == svc::Admission::kAccepted,
                  "degraded service refused a job");
      }
      durable.start();
      durable.drain();
      const double ms = (now_s() - t0) * 1e3;
      set_fs_fault_config(FsFaultConfig{});

      const std::vector<svc::JobResult> got = durable.take_results();
      DSM_CHECK(got.size() == want.size(), "degraded run lost a job");
      for (std::size_t i = 0; i < got.size(); ++i) {
        DSM_CHECK(got[i].id == want[i].id &&
                      got[i].status == svc::JobStatus::kOk &&
                      got[i].verified &&
                      got[i].measured_ns == want[i].measured_ns,
                  "degraded durability perturbed job results (seed " + tag +
                      ", index " + std::to_string(i) + ")");
      }
      DSM_CHECK(durable.planner().calibration_json() == want_cal,
                "degraded durability perturbed calibration");
      const svc::Metrics::DiskHealth dh = durable.metrics().disk_health();
      DSM_CHECK(dh.degraded_appends > 0,
                "WAL faults fired but nothing was counted degraded");
      DSM_CHECK(dh.non_durable_jobs == njobs,
                "every job rode a degraded batch; counted " +
                    std::to_string(dh.non_durable_jobs));
      ChaosCell cell;
      cell.seed = seed;
      cell.kind = "wal";
      cell.cl.acks = got.size();
      cell.degraded_appends = dh.degraded_appends;
      cell.non_durable_jobs = dh.non_durable_jobs;
      cell.host_ms = ms;
      cells.push_back(cell);
    }

    // Cell 4: mixed kill + stall in one run.
    {
      const std::string skill = root + "/mixed_kill_" + tag;
      const std::string sstall = root + "/mixed_stall_" + tag;
      const std::uint64_t kill_victim = njobs > 1 ? 1 : 0;
      const std::uint64_t stall_victim = njobs - 2;
      cluster::PoolConfig pc = pool_config(2, 20, 2);
      pc.worker.crash_hook = [skill, sstall, kill_victim, stall_victim](
                                 const char* /*site*/, std::uint64_t seq) {
        if (seq == kill_victim && first_claim(skill)) ::_exit(137);
        if (seq == stall_victim && first_claim(sstall)) ::raise(SIGSTOP);
      };
      PooledService run(cfg, pc);
      const ChaosCell cell =
          replay_cell(run, trace, reference, base_acks, seed, "mixed");
      DSM_CHECK(cell.cl.worker_deaths >= 1, "the killed worker never died");
      DSM_CHECK(cell.cl.hedges_issued >= 1,
                "the stalled worker was never hedged");
      DSM_CHECK(cell.cl.integrity_violations == 0,
                "mixed cell flagged a phantom integrity violation");
      DSM_CHECK(cell.cl.workers_quarantined == 0,
                "mixed cell quarantined an innocent worker");
      cells.push_back(cell);
    }

    std::cout << "  seed " << seed
              << ": stall/lie/wal/mixed all byte-identical, " << base_acks
              << " acks per run\n";
  }

  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"service_chaos\",\n"
     << "  \"config\": {\"njobs\": " << njobs << ", \"seed\": " << env.seed
     << ", \"seeds\": " << nseeds
     << ", \"quick\": " << (c.quick ? "true" : "false") << "},\n"
     << "  \"invariants\": {\"replay_byte_identical\": true, "
     << "\"no_lost_job\": true, "
     << "\"no_double_execution\": true, "
     << "\"dispatch_accounting_identity\": true, "
     << "\"liar_quarantined_zero_bystanders\": true, "
     << "\"degraded_durability_keeps_serving\": true},\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ChaosCell& k = cells[i];
    js << "    {\"seed\": " << k.seed << ", \"cell\": \"" << k.kind
       << "\", \"dispatches\": " << k.cl.dispatches
       << ", \"acks\": " << k.cl.acks
       << ", \"hedges_issued\": " << k.cl.hedges_issued
       << ", \"hedges_won\": " << k.cl.hedges_won
       << ", \"hedge_losers\": " << k.cl.hedge_losers
       << ", \"worker_deaths\": " << k.cl.worker_deaths
       << ", \"integrity_violations\": " << k.cl.integrity_violations
       << ", \"workers_quarantined\": " << k.cl.workers_quarantined
       << ", \"redispatches\": " << k.cl.redispatches
       << ", \"degraded_appends\": " << k.degraded_appends
       << ", \"non_durable_jobs\": " << k.non_durable_jobs
       << ", \"host_ms\": " << fmt_fixed(k.host_ms, 1) << "}"
       << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  js << "  ]\n"
     << "}\n";
  return js.str();
}

// --- The scenario table -----------------------------------------------

struct Scenario {
  const char* name;
  const char* title;
  const char* sizes_quick;
  const char* sizes_full;
  const char* procs_quick;
  const char* procs_full;
  const char* out;
  std::vector<std::string> flags;  // every flag the scenario reads
  std::string (*run)(const Ctx&);
};

const Scenario kScenarios[] = {
    {"throughput", "Sort service: predictor-planned scheduling under load",
     "16K,64K", "1M,4M,16M", "4,8", "16,32,64", "BENCH_service.json",
     {"quick", "out", "sizes", "procs", "seed", "jobs", "njobs", "capacity",
      "replay", "write-trace", "cluster-workers", "cluster-serve",
      "heartbeat-ms", "suspect-after", "record", "algo"},
     run_throughput},
    {"faults", "Sort service: degradation under overload + faults",
     "16K,64K", "256K,1M,4M", "4,8", "16,32", "BENCH_faults.json",
     {"quick", "out", "sizes", "procs", "seed", "jobs", "njobs", "capacity",
      "fault-rate", "replay", "write-trace"},
     run_faults},
    {"cluster", "Sort service: multi-process cluster", "4K,8K", "4K,8K,16K",
     "4,8", "4,8", "BENCH_cluster.json",
     {"quick", "out", "sizes", "procs", "seed", "njobs"}, run_cluster},
    {"crash", "Sort service: crash recovery matrix", "4K,8K", "4K,8K,16K",
     "4,8", "4,8", "BENCH_crash.json",
     {"quick", "out", "sizes", "procs", "seed", "nseeds", "njobs"},
     run_crash},
    {"chaos", "Sort service: gray-failure chaos", "4K,8K", "4K,8K,16K", "4,8",
     "4,8", "BENCH_chaos.json",
     {"quick", "out", "sizes", "procs", "seed", "njobs"}, run_chaos},
};

const Scenario& find_scenario(const std::string& name) {
  std::string names;
  for (const Scenario& s : kScenarios) {
    if (name == s.name) return s;
    names += std::string(" ") + s.name;
  }
  throw Error("--scenario: unknown scenario '" + name + "' (expected one of:" +
              names + ")");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const ArgParser args(argc, argv);
    const Scenario& s = find_scenario(args.get("scenario", ""));
    std::vector<std::string> known = s.flags;
    known.push_back("scenario");
    args.check_known(known);
    const bool quick = args.has("quick");
    bench::BenchEnv env =
        bench::read_env(args, quick ? s.sizes_quick : s.sizes_full,
                        quick ? s.procs_quick : s.procs_full);
    // A scenario without --jobs runs one service worker, whatever
    // DSMSORT_JOBS says; the banner reports what runs.
    if (std::find(s.flags.begin(), s.flags.end(), "jobs") == s.flags.end()) {
      env.jobs = 1;
    }
    const std::string out_path = args.get("out", s.out);
    if (!args.has("replay")) bench::banner(s.title, env);
    const Status written =
        try_write_file_atomic(out_path, s.run(Ctx{args, env, quick}));
    if (!written.ok()) throw Error(written);
    std::cout << "(json written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
