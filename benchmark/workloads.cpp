#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/frame.hpp"
#include "cluster/master.hpp"
#include "common/prng.hpp"
#include "machine/params.hpp"
#include "sas/shared_array.hpp"
#include "sim/sweep.hpp"
#include "sort/input_cache.hpp"
#include "sort/sort_api.hpp"
#include "stats.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace bench {
namespace {

using dsm::Index;
using dsm::Result;
namespace cluster = dsm::cluster;
namespace keys = dsm::keys;
namespace sort = dsm::sort;
namespace svc = dsm::svc;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// A generator whose own lateness p99 exceeds this gets a warning: the
/// latencies then describe the generator as much as the system.
constexpr double kMaxLatenessMs = 10;
/// Seed of the service workloads' job order. It is the same for every
/// --seed, which only chooses the keys: runs of different seeds then differ
/// in host noise, not in which jobs meet in the queue.
constexpr std::uint64_t kScheduleSeed = 0x5c4ed;
/// Warm-up jobs get ids far above any trace id, so a durable service's
/// duplicate-id filter never confuses the two.
constexpr std::uint64_t kWarmupIdBase = std::uint64_t{1} << 40;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  using Clock = std::chrono::steady_clock;
  const auto d = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(t));
  std::this_thread::sleep_until(Clock::time_point(d));
}

double as_double(std::uint64_t x) { return static_cast<double>(x); }

/// Job latency is a per-layer metric (README.md says why); an untraced run
/// still notes it.
std::string latency_note(double p50, double p95) {
  std::ostringstream os;
  os << "job latency p50 " << p50 << " ms, p95 " << p95 << " ms";
  return os.str();
}

/// "set-ups: 0.0312 0.0287 ... s", the note every run prints.
std::string setup_note(const std::vector<double>& setup_s) {
  std::ostringstream os;
  os.precision(3);
  os << "set-ups:";
  for (const double t : setup_s) os << ' ' << t;
  os << " s";
  return os.str();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- Process resource usage ------------------------------------------------

struct Usage {
  double cpu_s = 0;   // user + sys of this process and its reaped children
  double rss_mb = 0;  // max(own peak RSS, largest reaped child's peak RSS)
};

Usage usage_now() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  Usage u;
  u.cpu_s = sec(self.ru_utime) + sec(self.ru_stime) + sec(kids.ru_utime) +
            sec(kids.ru_stime);
  u.rss_mb = static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
             1024.0;
  return u;
}

/// Restart this process's peak-RSS count (VmHWM). Where the kernel refuses,
/// the count keeps running and window_peak_rss_mb() reads the process peak.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// This process's peak RSS since reset_peak_rss() (MB); 0 when unknown.
double window_peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// --- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the same log; -1 for a root
  std::uint64_t job = 0;
};

class SpanLog {
 public:
  int add(std::string name, double start, double end, int parent,
          std::uint64_t job) {
    spans_.push_back(Span{std::move(name), start, end, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void set_end(int span, double end) {
    spans_[static_cast<std::size_t>(span)].end = end;
  }

  /// Share of the root spans named `root` that no child span explains:
  /// the roots' summed self time over their summed duration.
  double unattributed_frac(const std::string& root) const {
    std::vector<std::vector<Interval>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
      }
    }
    double self = 0;
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0 || spans_[i].name != root) continue;
      self += self_time({spans_[i].start, spans_[i].end}, kids[i]);
      total += spans_[i].end - spans_[i].start;
    }
    return total > 0 ? self / total : 0;
  }

  void write_jsonl(const std::string& path, double origin) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": "
          << static_cast<long long>((s.start - origin) * 1e9)
          << ", \"end_ns\": " << static_cast<long long>((s.end - origin) * 1e9)
          << ", \"parent\": " << s.parent << ", \"job\": " << s.job << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Wall-clock stamps of one try_run_sort call: entry, every on_site
/// checkpoint ("keygen", rank 0's phase marks, "verify") and return.
struct SiteClock {
  struct Site {
    std::string name;
    double virtual_ns = 0;
    double t = 0;
  };
  double entry = 0;
  double exit = 0;
  std::vector<Site> sites;

  void arm(sort::SortSpec& spec) {
    spec.hooks.on_site = [this](const char* site, double virtual_ns) {
      sites.push_back(Site{site, virtual_ns, now_s()});
    };
  }
};

/// One try_run_sort call: its result, its wall-clock stamps (checkpoints
/// too when traced) and the input-cache lookups it made on this thread.
/// Must not move while run() executes: the armed hook points at `clock`.
struct TimedSort {
  Result<sort::SortResult> result = dsm::Status::internal("not run");
  SiteClock clock;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  void run(sort::SortSpec spec, bool traced) {
    if (traced) clock.arm(spec);
    const sort::InputCacheStats before = sort::input_cache_stats();
    clock.entry = now_s();
    result = sort::try_run_sort(spec);
    clock.exit = now_s();
    const sort::InputCacheStats after = sort::input_cache_stats();
    hits = after.hits - before.hits;
    misses = after.misses - before.misses;
  }
  bool ok() const { return result.ok() && result->verified; }
};

/// Host time of one sort split by layer (seconds):
///   sim.setup    entry -> "keygen"        (team, storage, fibers)
///   keys.keygen  "keygen" -> first mark   (input generation / cache)
///   sort.run     first mark -> "verify"   (the parallel runners)
///   sort.verify  "verify" -> return
/// and sort.run split into phases, each mark to the next.
struct SortLayers {
  double setup = 0;
  double keygen = 0;
  double run = 0;
  double verify = 0;
  std::vector<std::pair<std::string, double>> phases;
};

std::string phase_key(const std::string& site) {
  std::string k = site;
  std::replace(k.begin(), k.end(), ' ', '_');
  return k;
}

/// Splits a SiteClock into layers and, when `log` is set, records the
/// spans under a parent span named `name`. Returns the parent span index.
int sort_layers(const SiteClock& c, SortLayers* out, SpanLog* log,
                const char* name, int parent, std::uint64_t job) {
  const auto& s = c.sites;
  std::size_t k = 0;
  while (k < s.size() && s[k].name != "keygen") ++k;
  const double t_keygen = k < s.size() ? s[k].t : c.entry;
  std::size_t v = 0;
  while (v < s.size() && s[v].name != "verify") ++v;
  const double t_verify = v < s.size() ? s[v].t : c.exit;
  const std::size_t first = k < s.size() ? k + 1 : 0;
  const double t_run = first < v ? s[first].t : t_verify;

  SortLayers l;
  l.setup = t_keygen - c.entry;
  l.keygen = t_run - t_keygen;
  l.run = t_verify - t_run;
  l.verify = c.exit - t_verify;
  for (std::size_t i = first; i < v; ++i) {
    const double end = i + 1 < v ? s[i + 1].t : t_verify;
    l.phases.emplace_back(phase_key(s[i].name), end - s[i].t);
  }
  if (out != nullptr) *out = l;
  if (log == nullptr) return -1;
  const int root = log->add(name, c.entry, c.exit, parent, job);
  log->add("sim.setup", c.entry, t_keygen, root, job);
  log->add("keys.keygen", t_keygen, t_run, root, job);
  const int run = log->add("sort.run", t_run, t_verify, root, job);
  for (std::size_t i = first; i < v; ++i) {
    const double end = i + 1 < v ? s[i + 1].t : t_verify;
    log->add("sort.phase." + phase_key(s[i].name), s[i].t, end, run, job);
  }
  log->add("sort.verify", t_verify, c.exit, root, job);
  return root;
}

// --- Per-layer report ------------------------------------------------------

constexpr const char* kPhaseKeys[] = {
    "local_histogram", "global_histogram", "permutation", "redistribution",
    "local_sort_1",    "local_sort_2",     "sampling",    "splitters",
    "partition",       "barrier"};

/// Everything the traced run measures. Layers a workload does not run keep
/// their zero defaults and are printed as 0.
struct LayerReport {
  /// Latency of the untraced live run: from the due time for services, a
  /// cell's wall time for fig-sweep.
  double job_ms_p50 = 0, job_ms_p95 = 0;
  double jobs = 0;  // jobs (or cells) the per-job figures divide by
  double keys = 0;  // keys sorted by those jobs' primary sorts
  double setup_s = 0, keygen_s = 0, run_s = 0, verify_s = 0;
  std::map<std::string, double> phase_s;
  double cache_hits = 0, cache_misses = 0;

  std::vector<double> admit_us, plan_us, wait_ms, lateness_ms;
  double depth_hwm = 0, rejected = 0;
  double rel_err_cal = 0, audit_hit_ratio = 0;
  double audits = 0, audit_s = 0, retries = 0;

  double journal_records = 0, journal_bytes = 0, fsync_s = 0, snapshots = 0;
  std::vector<double> fsync_us;

  std::vector<double> attempt_ms, attempt_overhead_ms;
  double integrity_s = 0, acks_per_dispatch = 0, worker_busy_frac = 0;
  std::vector<double> encode_us, decode_us, rtt_us;
  double frame_bytes = 0;

  double overhead = 0, unattributed_frac = 0, error_rate = 0;

  void add_sort(const SortLayers& l, Index n) {
    keys += static_cast<double>(n);
    setup_s += l.setup;
    keygen_s += l.keygen;
    run_s += l.run;
    verify_s += l.verify;
    for (const auto& [k, s] : l.phases) phase_s[k] += s;
  }
};

std::vector<Metric> per_layer_metrics(const LayerReport& r) {
  const double jobs = std::max(r.jobs, 1.0);
  const auto per_job_ms = [&](double s) { return s * 1e3 / jobs; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<Metric> m = {
      {"job_ms_p50", r.job_ms_p50, "ms"},
      {"job_ms_p95", r.job_ms_p95, "ms"},
      {"sim.setup_ms_per_job", per_job_ms(r.setup_s), "ms"},
      {"keys.keygen_ms_per_job", per_job_ms(r.keygen_s), "ms"},
      {"sort.input_cache.hit_ratio",
       ratio(r.cache_hits, r.cache_hits + r.cache_misses), "ratio"},
      {"sort.run_ms_per_job", per_job_ms(r.run_s), "ms"},
      {"sort.ns_per_key", ratio(r.run_s * 1e9, r.keys), "ns/key"},
  };
  for (const char* k : kPhaseKeys) {
    const auto it = r.phase_s.find(k);
    m.push_back({std::string("sort.phase.") + k + "_ms_per_job",
                 per_job_ms(it == r.phase_s.end() ? 0 : it->second), "ms"});
  }
  const std::vector<Metric> rest = {
      {"sort.verify_ms_per_job", per_job_ms(r.verify_s), "ms"},
      {"svc.queue.admit_us_p50", percentile(r.admit_us, 0.5), "us"},
      {"svc.queue.depth_hwm", r.depth_hwm, "count"},
      {"svc.queue.rejected", r.rejected, "count"},
      {"svc.planner.plan_us_p50", percentile(r.plan_us, 0.5), "us"},
      {"svc.planner.rel_err_cal", r.rel_err_cal, "ratio"},
      {"svc.planner.audit_hit_ratio", r.audit_hit_ratio, "ratio"},
      {"svc.server.audits_per_job", r.audits / jobs, "count"},
      {"svc.server.audit_ms_per_job", per_job_ms(r.audit_s), "ms"},
      {"svc.server.retries", r.retries, "count"},
      {"svc.server.wait_ms_p50", percentile(r.wait_ms, 0.5), "ms"},
      {"svc.journal.records_per_job", r.journal_records / jobs, "count"},
      {"svc.journal.fsync_us_p50", percentile(r.fsync_us, 0.5), "us"},
      {"svc.journal.fsync_ms_per_job", per_job_ms(r.fsync_s), "ms"},
      {"svc.journal.bytes_per_job", r.journal_bytes / jobs, "B"},
      {"svc.snapshot.count", r.snapshots, "count"},
      {"cluster.master.attempt_ms_p50", percentile(r.attempt_ms, 0.5), "ms"},
      {"cluster.master.attempt_overhead_ms_p50",
       percentile(r.attempt_overhead_ms, 0.5), "ms"},
      {"cluster.master.integrity_ms_per_job", per_job_ms(r.integrity_s), "ms"},
      {"cluster.master.acks_per_dispatch", r.acks_per_dispatch, "ratio"},
      {"cluster.master.worker_busy_frac", r.worker_busy_frac, "ratio"},
      {"cluster.frame.encode_us_p50", percentile(r.encode_us, 0.5), "us"},
      {"cluster.frame.decode_us_p50", percentile(r.decode_us, 0.5), "us"},
      {"cluster.frame.bytes_per_job", r.frame_bytes / jobs, "B"},
      {"cluster.transport.rtt_us_p50", percentile(r.rtt_us, 0.5), "us"},
      {"load.lateness_ms_p99", percentile(r.lateness_ms, 0.99), "ms"},
      {"trace.overhead", r.overhead, "ratio"},
      {"trace.unattributed_frac", r.unattributed_frac, "ratio"},
      {"error_rate", r.error_rate, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// --- fig-sweep ---------------------------------------------------------------

/// Host threads of the closed sweep loop.
constexpr int kSweepThreads = 4;
/// Host time of one full grid pass on the reference host (README.md); a run
/// measures round(seconds / this) passes, so its work is fixed by
/// --seconds, never by how fast a particular run happens to go.
constexpr double kSweepPassSeconds = 4;

constexpr std::pair<sort::Algo, sort::Model> kSweepCombos[] = {
    {sort::Algo::kRadix, sort::Model::kCcSas},
    {sort::Algo::kRadix, sort::Model::kCcSasNew},
    {sort::Algo::kRadix, sort::Model::kMpi},
    {sort::Algo::kRadix, sort::Model::kShmem},
    {sort::Algo::kSample, sort::Model::kCcSas},
    {sort::Algo::kSample, sort::Model::kMpi},
    {sort::Algo::kSample, sort::Model::kShmem},
};
constexpr int kSweepProcs[] = {16, 32, 64};
constexpr int kSweepRadixes[] = {8, 11};

/// Virtual-time digests of the full grid, recorded on the reference host.
/// Virtual time is deterministic, so any host must reproduce them.
constexpr std::pair<std::uint64_t, std::uint64_t> kSweepDigests[] = {
    {1, 0xcac282f38ff34d73},
    {2, 0xb540a0f1e566751d},
};

struct SweepCell {
  sort::Algo algo = sort::Algo::kRadix;
  sort::Model model = sort::Model::kShmem;
  Index n = 0;
  int p = 0;
  int radix = 8;
};

std::vector<Index> sweep_sizes(bool smoke) {
  std::vector<Index> sizes{Index{64} << 10, Index{256} << 10, Index{1} << 20};
  if (!smoke) {
    sizes.push_back(Index{2} << 20);
    sizes.push_back(Index{4} << 20);
  }
  return sizes;
}

std::vector<SweepCell> sweep_grid(bool smoke) {
  std::vector<SweepCell> grid;
  for (const Index n : sweep_sizes(smoke)) {
    for (const int p : kSweepProcs) {
      for (const int r : kSweepRadixes) {
        for (const auto& [algo, model] : kSweepCombos) {
          grid.push_back(SweepCell{algo, model, n, p, r});
        }
      }
    }
  }
  return grid;
}

/// What a run keeps of one cell (not the SortResult: a run holds over a
/// thousand cells, and their results would show in peak_rss_mb).
struct CellOutcome {
  double start = 0;
  double end = 0;
  double elapsed_ns = 0;
  std::string error;  // empty when the cell sorted and verified
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  SiteClock clock;
};

/// One closed-loop pass over the grid on kSweepThreads threads, largest
/// cells first so the pass does not end on one straggler.
std::vector<CellOutcome> run_sweep_pass(const std::vector<SweepCell>& grid,
                                        std::uint64_t seed, bool traced) {
  std::vector<std::size_t> order(grid.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return grid[a].n > grid[b].n;
                   });
  std::vector<CellOutcome> out(grid.size());
  dsm::sim::run_indexed(order.size(), kSweepThreads, [&](std::size_t k) {
    const SweepCell& cell = grid[order[k]];
    CellOutcome& o = out[order[k]];
    o.start = now_s();
    sort::SortSpec spec;
    spec.algo = cell.algo;
    spec.model = cell.model;
    spec.nprocs = cell.p;
    spec.n = cell.n;
    spec.radix_bits = cell.radix;
    spec.dist = keys::Dist::kGauss;
    spec.record = keys::RecordType::kU32;
    spec.seed = seed;
    TimedSort t;
    t.run(spec, traced);
    o.end = now_s();
    o.hits = t.hits;
    o.misses = t.misses;
    o.clock = std::move(t.clock);
    if (t.ok()) {
      o.elapsed_ns = t.result->elapsed_ns;
    } else {
      o.error = t.result.ok() ? "unverified output"
                              : t.result.status().to_string();
    }
  });
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Per-pass figures; a run reports the median over its passes.
struct SweepPass {
  std::vector<CellOutcome> cells;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;  // peak RSS during the pass
  std::vector<double> cell_ms;
  std::uint64_t digest = 0;
};

struct SweepRun {
  std::vector<SweepPass> passes;
  double cpu_s = 0;
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;

  std::vector<double> per_pass(double (*f)(const SweepPass&)) const {
    std::vector<double> v;
    for (const SweepPass& p : passes) v.push_back(f(p));
    return v;
  }
};

SweepRun run_sweep(const std::vector<SweepCell>& grid, std::uint64_t seed,
                   const std::vector<double>& baselines, int passes,
                   bool traced, RunReport& rep) {
  SweepRun run;
  for (int p = 0; p < passes; ++p) {
    SweepPass pass;
    reset_peak_rss();
    const Usage u0 = usage_now();
    const double t0 = now_s();
    pass.cells = run_sweep_pass(grid, seed, traced);
    pass.wall_s = now_s() - t0;
    pass.cpu_s = usage_now().cpu_s - u0.cpu_s;
    pass.rss_mb = window_peak_rss_mb();
    run.cpu_s += pass.cpu_s;
    pass.digest = kFnvBasis;
    for (const CellOutcome& o : pass.cells) {
      ++run.cells;
      if (!o.error.empty()) {
        ++run.failed;
        rep.problems.push_back("fig-sweep cell failed: " + o.error);
        continue;
      }
      pass.cell_ms.push_back((o.end - o.start) * 1e3);
      pass.digest = fnv1a(pass.digest, o.elapsed_ns);
    }
    for (const double b : baselines) pass.digest = fnv1a(pass.digest, b);
    if (p > 0 && pass.digest != run.passes.front().digest) {
      rep.problems.push_back("fig-sweep digest differs between passes");
    }
    run.passes.push_back(std::move(pass));
  }
  return run;
}

RunReport run_fig_sweep(const RunOptions& opt) {
  RunReport rep;
  const std::vector<SweepCell> grid = sweep_grid(opt.smoke);
  const std::vector<Index> sizes = sweep_sizes(opt.smoke);

  // Set-up: the Table-1 sequential baselines every speedup divides by,
  // from a cold input cache each time.
  std::vector<double> setup_s;
  std::vector<double> baselines;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    sort::input_cache_clear();
    const double t = now_s();
    baselines.clear();
    for (const Index n : sizes) {
      for (const int r : kSweepRadixes) {
        baselines.push_back(sort::seq_baseline_ns(
            n, keys::Dist::kGauss, r,
            dsm::machine::MachineParams::origin2000_for_keys(n), opt.seed));
      }
    }
    setup_s.push_back(now_s() - t);
  }
  sort::input_cache_clear();

  const int passes = std::max(
      1, static_cast<int>(std::lround(opt.seconds / kSweepPassSeconds)));
  const SweepRun live =
      run_sweep(grid, opt.seed, baselines, passes, false, rep);
  rep.attempted = live.cells;
  rep.failed = live.failed;
  const std::uint64_t digest = live.passes.front().digest;
  rep.notes.push_back("fig-sweep: " + std::to_string(grid.size()) +
                      " cells x " + std::to_string(passes) +
                      " passes, virtual-time digest " + hex(digest));
  if (!opt.smoke) {
    for (const auto& [seed, want] : kSweepDigests) {
      if (seed == opt.seed && want != digest) {
        rep.problems.push_back("fig-sweep digest " + hex(digest) +
                               " differs from the recorded " + hex(want) +
                               " for seed " + std::to_string(seed));
      }
    }
  }

  const double p50 = median(live.per_pass(
      [](const SweepPass& p) { return percentile(p.cell_ms, 0.5); }));
  const double p95 = median(live.per_pass(
      [](const SweepPass& p) { return percentile(p.cell_ms, 0.95); }));
  if (!opt.trace) {
    for (const SweepPass& p : live.passes) {
      rep.notes.push_back(
          "fig-sweep pass: " + std::to_string(p.wall_s) + " s wall, p50 " +
          std::to_string(percentile(p.cell_ms, 0.5)) + " ms, cpu/cell " +
          std::to_string(p.cpu_s * 1e3 / as_double(p.cells.size())) +
          " ms, peak RSS " + std::to_string(p.rss_mb) + " MB");
    }
    rep.notes.push_back(
        "fig-sweep: medians over passes of " + std::to_string(grid.size()) +
        " cells, " + std::to_string(samples_beyond(grid.size(), 0.95)) +
        " beyond each pass p95");
    rep.notes.push_back(latency_note(p50, p95));
    rep.notes.push_back(setup_note(setup_s));
    rep.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", median(live.per_pass([](const SweepPass& p) {
           return as_double(p.cell_ms.size()) / p.wall_s;
         })),
         "jobs/s"},
        {"cpu_ms_per_job", median(live.per_pass([](const SweepPass& p) {
           return p.cpu_s * 1e3 / as_double(p.cells.size());
         })),
         "ms"},
        {"peak_rss_mb",
         median(live.per_pass([](const SweepPass& p) { return p.rss_mb; })),
         "MB"},
    };
    return rep;
  }

  // Traced: the same passes with on_site spans on every cell.
  const SweepRun traced =
      run_sweep(grid, opt.seed, baselines, passes, true, rep);
  rep.attempted += traced.cells;
  rep.failed += traced.failed;
  if (traced.passes.front().digest != digest) {
    rep.problems.push_back("traced fig-sweep digest differs from untraced");
  }
  LayerReport lr;
  lr.job_ms_p50 = p50;
  lr.job_ms_p95 = p95;
  SpanLog log;
  std::uint64_t job = 0;
  for (const SweepPass& pass : traced.passes) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const CellOutcome& o = pass.cells[i];
      ++job;
      if (!o.error.empty()) continue;
      const int root = log.add("cell", o.start, o.end, -1, job);
      SortLayers l;
      sort_layers(o.clock, &l, &log, "sort", root, job);
      lr.add_sort(l, grid[i].n);
      lr.jobs += 1;
      lr.cache_hits += as_double(o.hits);
      lr.cache_misses += as_double(o.misses);
    }
  }
  lr.unattributed_frac = log.unattributed_frac("cell");
  lr.overhead = (traced.cpu_s / as_double(traced.cells)) /
                (live.cpu_s / as_double(live.cells));
  lr.error_rate = as_double(rep.failed) / as_double(rep.attempted);
  if (!opt.out_dir.empty()) {
    log.write_jsonl(opt.out_dir + "/spans-fig-sweep-" +
                        std::to_string(opt.seed) + ".jsonl",
                    log.spans().empty() ? 0 : log.spans().front().start);
  }
  rep.metrics = per_layer_metrics(lr);
  return rep;
}

// --- Service workloads -----------------------------------------------------

struct ServiceWorkload {
  const char* name;
  std::vector<std::uint64_t> sizes;
  std::vector<int> procs;
  std::vector<keys::Dist> dists;
  std::vector<keys::RecordType> records;
  int workers;  // service host threads (1 when durable)
  /// Open-loop arrival rate (jobs/s): 7-19% of the capacity
  /// --probe-capacity measures with full batches on the reference host
  /// (README.md). The server runs one batch at a time, and arrivals this
  /// sparse mostly make one-job batches, so the loop is far busier than
  /// that share suggests: under Poisson arrivals, svc-small's p50 grew from
  /// 9.4 to 13.5 ms when its rate went from 15 to 30 jobs/s.
  double rate;
  bool durable_cluster;
};

const std::vector<keys::Dist> kPaperDists(std::begin(keys::kAllDists),
                                          std::end(keys::kAllDists));
const std::vector<keys::Dist> kSkewDists(std::begin(keys::kSkewDists),
                                         std::end(keys::kSkewDists));

const ServiceWorkload kServiceWorkloads[] = {
    {"svc-small",
     {16u << 10, 64u << 10, 256u << 10},
     {4, 16, 64},
     kPaperDists,
     {keys::RecordType::kU32},
     3,
     15.0,
     false},
    {"svc-skew-kv",
     {64u << 10, 256u << 10},
     {16, 32},
     kSkewDists,
     {keys::RecordType::kU32, keys::RecordType::kKeyPayload32},
     3,
     12.0,
     false},
    {"svc-durable-cluster",
     {16u << 10, 64u << 10, 256u << 10},
     {8, 16, 32},
     kPaperDists,
     {keys::RecordType::kU32},
     1,
     15.0,
     true},
};

/// Worker processes and heartbeat period of the cluster workload.
constexpr int kClusterWorkers = 2;
constexpr int kHeartbeatMs = 50;
/// Live queue bound: far above the backlog these rates build, so an
/// admission rejection means a real overload.
constexpr std::size_t kQueueCapacity = 256;

svc::LoadMix mix_of(const ServiceWorkload& w) {
  svc::LoadMix mix;
  mix.sizes = w.sizes;
  mix.procs = w.procs;
  mix.dists = w.dists;
  mix.records = w.records;
  return mix;
}

/// Hooks armed by a traced live run: remote attempt spans from the
/// executor decorator and journal fsync spans from the durability hook.
class LiveTrace {
 public:
  struct Attempt {
    std::uint64_t job = 0;
    bool audit = false;
    double start = 0;
    double end = 0;
  };
  struct Fsync {
    std::uint64_t seq = 0;
    double start = 0;
    double end = 0;
  };

  void on_attempt(const Attempt& a) {
    const std::lock_guard<std::mutex> lock(mu_);
    attempts_.push_back(a);
  }
  void on_durability_site(const char* site, std::uint64_t seq) {
    const std::string s = site;
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    if (s.ends_with(".before-fsync")) {
      pending_ = t;
    } else if (s.ends_with(".after-fsync")) {
      fsyncs_.push_back(Fsync{seq, pending_, t});
    }
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    attempts_.clear();
    fsyncs_.clear();
  }
  std::vector<Attempt> attempts() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return attempts_;
  }
  std::vector<Fsync> fsyncs() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return fsyncs_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Attempt> attempts_;
  std::vector<Fsync> fsyncs_;
  double pending_ = 0;  // before-fsync stamp of the record being appended
};

/// RemoteExecutor decorator that times every attempt the service hands to
/// the worker pool.
class TimedExecutor final : public svc::RemoteExecutor {
 public:
  TimedExecutor(svc::RemoteExecutor& inner, LiveTrace& trace)
      : inner_(inner), trace_(trace) {}

  svc::RemoteOutcome run_attempt(const svc::RemoteAttempt& attempt,
                                 const MarkFn& on_mark,
                                 const DispatchFn& on_dispatch) override {
    const double t0 = now_s();
    svc::RemoteOutcome out = inner_.run_attempt(attempt, on_mark, on_dispatch);
    trace_.on_attempt({attempt.job.id, attempt.audit, t0, now_s()});
    return out;
  }
  void bind_service(svc::Metrics* metrics, const svc::FaultConfig& faults,
                    std::uint64_t input_cache_budget_bytes) override {
    inner_.bind_service(metrics, faults, input_cache_budget_bytes);
  }
  void note_batch(std::size_t jobs, double predicted_ns,
                  std::size_t queue_depth) override {
    inner_.note_batch(jobs, predicted_ns, queue_depth);
  }

 private:
  svc::RemoteExecutor& inner_;
  LiveTrace& trace_;
};

/// One live deployment: the worker pool (cluster workload), the service and
/// its journal directory. Construction plus warm_up(), which starts the
/// service, is what setup_s times.
class Deployment {
 public:
  Deployment(const ServiceWorkload& w, std::string dir, LiveTrace* trace,
             std::size_t capacity)
      : dir_(std::move(dir)) {
    svc::ServiceConfig cfg;
    cfg.queue_capacity = capacity;
    cfg.workers = w.workers;
    // Plan on raw predictions. With calibration on, the observations a plan
    // sees depend on where host timing put the batch boundaries: two live
    // runs of one svc-skew-kv seed chose different plans for 140 of 270
    // jobs. The replay measures the calibrating planner instead.
    cfg.planner.calibrate = false;
    if (w.durable_cluster) {
      cluster::PoolConfig pc;
      pc.policy.min_workers = kClusterWorkers;
      pc.policy.max_workers = kClusterWorkers;
      pc.heartbeat_ms = kHeartbeatMs;
      pool_ = std::make_unique<cluster::WorkerPool>(pc);
      svc::RemoteExecutor* remote = pool_.get();
      if (trace != nullptr) {
        timed_ = std::make_unique<TimedExecutor>(*pool_, *trace);
        remote = timed_.get();
      }
      cfg.remote = remote;
      cfg.verify_remote_integrity = true;
      std::filesystem::create_directories(dir_);
      cfg.durability.dir = dir_;
      cfg.durability.fsync_data = true;
      if (trace != nullptr) {
        cfg.durability.crash_hook = [trace](const char* site,
                                            std::uint64_t seq) {
          trace->on_durability_site(site, seq);
        };
      }
    }
    svc_ = std::make_unique<svc::SortService>(cfg);
    if (pool_) {
      const dsm::Status started = pool_->start();
      if (!started.ok()) {
        throw std::runtime_error("worker pool: " + started.to_string());
      }
    }
  }

  ~Deployment() {
    finish();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  svc::SortService& service() { return *svc_; }

  /// Start the service, run `jobs` to completion and discard their results.
  /// They are queued before the server loop starts, so they always form one
  /// batch; submitted to a running loop, a race decided whether the first
  /// job ran alone and the others in a second batch.
  void warm_up(const std::vector<svc::JobSpec>& jobs) {
    for (const svc::JobSpec& j : jobs) {
      if (svc_->submit(j) != svc::Admission::kAccepted) {
        throw std::runtime_error("warm-up job rejected");
      }
    }
    svc_->start();
    std::size_t done = 0;
    const double give_up = now_s() + 120;
    while (done < jobs.size()) {
      done += svc_->take_results().size();
      if (now_s() > give_up) throw std::runtime_error("warm-up timed out");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Drain the service and stop the pool, reaping every worker process.
  void finish() {
    if (svc_) svc_->drain();
    if (pool_) pool_->shutdown();
  }

 private:
  std::string dir_;
  std::unique_ptr<cluster::WorkerPool> pool_;
  std::unique_ptr<TimedExecutor> timed_;
  std::unique_ptr<svc::SortService> svc_;
};

struct LiveJob {
  double due = 0;
  double submit = 0;
  double admit_us = 0;
  svc::Admission admission = svc::Admission::kAccepted;
};

struct LiveRun {
  std::vector<double> setup_s;
  std::vector<LiveJob> jobs;            // trace order (= job id)
  std::vector<svc::JobResult> results;  // processing order
  std::vector<double> latency_ms;       // from the due time, ok jobs
  std::vector<double> latency_by_id;    // -1 when the job did not complete
  double t0 = 0;                        // first due time
  double end = 0;                       // last completion
  double cpu_s = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::size_t warmup = 0;
  double depth_hwm = 0;
  double snapshots = 0;
  double dispatches = 0;
  double acks = 0;
};

/// One job per host worker (or worker process), so each has run once. They
/// all take the mix's largest size and processor count, and the i-th takes
/// the mix's i-th distribution and record type, so the warm-up costs the
/// same whatever the seed draws; the seed only picks their keys.
std::vector<svc::JobSpec> warmup_jobs(const ServiceWorkload& w,
                                      std::uint64_t seed) {
  const int n = w.durable_cluster ? kClusterWorkers : w.workers;
  std::vector<svc::JobSpec> jobs = svc::make_trace(
      seed + 1000, static_cast<std::size_t>(n), mix_of(w));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    svc::JobSpec& j = jobs[i];
    j.id += kWarmupIdBase;
    j.n = w.sizes.back();
    j.nprocs = w.procs.back();
    j.dist = w.dists[i % w.dists.size()];
    j.record = w.records[i % w.records.size()];
  }
  return jobs;
}

LiveRun run_live(const ServiceWorkload& w, const RunOptions& opt,
                 const std::vector<svc::JobSpec>& trace,
                 const std::vector<double>& offsets, int setup_reps,
                 LiveTrace* hooks, const std::string& tag) {
  LiveRun run;
  const std::vector<svc::JobSpec> warm = warmup_jobs(w, opt.seed);
  run.warmup = warm.size();
  const std::size_t capacity =
      std::max(kQueueCapacity, trace.size() + warm.size());
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < setup_reps; ++i) {
    d.reset();
    const std::string dir =
        w.durable_cluster ? opt.out_dir + "/journal-" + tag + "-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(i)
                          : std::string();
    const double t = now_s();
    d = std::make_unique<Deployment>(w, dir, hooks, capacity);
    d->warm_up(warm);
    run.setup_s.push_back(now_s() - t);
  }
  if (hooks != nullptr) hooks->clear();
  svc::SortService& service = d->service();
  const svc::Metrics::Cluster cl0 = service.metrics().cluster();
  const double snaps0 = as_double(service.metrics().durability().snapshots);

  const Usage u0 = usage_now();
  run.t0 = now_s() + 0.01;
  run.jobs.resize(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    LiveJob& j = run.jobs[i];
    j.due = run.t0 + offsets[i];
    sleep_until_s(j.due);
    j.submit = now_s();
    j.admission = service.submit(trace[i]);
    j.admit_us = (now_s() - j.submit) * 1e6;
    if (j.admission != svc::Admission::kAccepted) ++run.rejected;
  }
  d->finish();
  run.cpu_s = usage_now().cpu_s - u0.cpu_s;

  run.results = service.take_results();
  run.depth_hwm = as_double(service.metrics().queue_depth_high_water());
  run.snapshots =
      as_double(service.metrics().durability().snapshots) - snaps0;
  const svc::Metrics::Cluster cl1 = service.metrics().cluster();
  run.dispatches = as_double(cl1.dispatches - cl0.dispatches);
  run.acks = as_double(cl1.acks - cl0.acks);
  d.reset();

  run.latency_by_id.assign(trace.size(), -1);
  run.end = run.t0;
  for (const svc::JobResult& r : run.results) {
    if (r.id >= trace.size()) continue;
    if (r.status != svc::JobStatus::kOk || !r.verified) {
      ++run.failed;
      continue;
    }
    ++run.ok;
    const LiveJob& j = run.jobs[r.id];
    const double lat = latency_from_due_ms(j.due, j.submit, r.host_latency_ms);
    run.latency_by_id[r.id] = lat;
    run.latency_ms.push_back(lat);
    run.end = std::max(run.end, j.due + lat / 1e3);
  }
  // Jobs that never produced a result (lost) count as failed too.
  const std::uint64_t accounted = run.ok + run.failed + run.rejected;
  if (accounted < trace.size()) run.failed += trace.size() - accounted;
  return run;
}

/// How late the generator itself submitted each job: from when it was both
/// due and free (its previous submit had returned) to the submit. Time the
/// previous submit spent blocked inside the service (a durable admission
/// waits for its fsync) is the system's, and the latency from the due time
/// already counts it.
std::vector<double> lateness_ms(const LiveRun& run) {
  std::vector<double> v;
  v.reserve(run.jobs.size());
  double free_at = run.t0;
  for (const LiveJob& j : run.jobs) {
    v.push_back((j.submit - std::max(j.due, free_at)) * 1e3);
    free_at = j.submit + j.admit_us * 1e-6;
  }
  return v;
}

/// Account the run's errors into `rep` and note how late the generator ran.
void account(const LiveRun& run, const char* name, RunReport& rep) {
  rep.attempted += run.jobs.size();
  rep.failed += run.failed + run.rejected;
  if (run.failed + run.rejected > 0) {
    rep.problems.push_back(std::string(name) + ": " +
                           std::to_string(run.failed) + " failed and " +
                           std::to_string(run.rejected) +
                           " rejected jobs");
  }
  std::vector<double> behind;
  for (const LiveJob& j : run.jobs) behind.push_back((j.submit - j.due) * 1e3);
  const double late = percentile(lateness_ms(run), 0.99);
  std::ostringstream note;
  note << name << ": generator lateness p99 " << late << " ms ("
       << percentile(behind, 0.99)
       << " ms with the previous submit's admission) over " << run.jobs.size()
       << " jobs; " << run.latency_ms.size() << " latency samples, "
       << samples_beyond(run.latency_ms.size(), 0.95) << " beyond p95";
  rep.notes.push_back(note.str());
  if (late > kMaxLatenessMs) {
    std::ostringstream warn;
    warn << "WARNING: " << name << ": generator lateness p99 " << late
         << " ms is above " << kMaxLatenessMs
         << " ms; its latencies include the generator's delay";
    rep.notes.push_back(warn.str());
  }
}

/// Arrival offsets (seconds from the first due time) of `count` jobs spread
/// evenly over [0, span); all zero in capacity-probe mode. Evenly, not as
/// a Poisson process: the bursts of Poisson arrivals queue jobs behind each
/// other, and that queueing amplifies the host's speed swings. In
/// interleaved runs on the reference host, svc-skew-kv's p50 was 16.2 ms
/// with a ten-run spread of 16% under Poisson arrivals and 12.7 ms with a
/// spread of 5% under even ones.
std::vector<double> arrival_offsets(std::size_t count, double span,
                                    bool burst) {
  std::vector<double> out(count, 0.0);
  if (burst) return out;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = span * static_cast<double>(i) / static_cast<double>(count);
  }
  return out;
}

/// The jobs of one run: svc::make_trace jobs whose (size, procs, dist,
/// record) are re-dealt so every combination of the mix occurs equally
/// often, in an order fixed by kScheduleSeed. A seed then changes which
/// keys are sorted, never how much of each kind of work the run does or
/// in what order it arrives.
std::vector<svc::JobSpec> make_jobs(const ServiceWorkload& w,
                                    std::uint64_t seed, double seconds,
                                    double rate) {
  struct Kind {
    Index n;
    int p;
    keys::Dist dist;
    keys::RecordType record;
  };
  std::vector<Kind> kinds;
  for (const std::uint64_t n : w.sizes) {
    for (const int p : w.procs) {
      for (const keys::Dist d : w.dists) {
        for (const keys::RecordType r : w.records) {
          kinds.push_back(Kind{n, p, d, r});
        }
      }
    }
  }
  // Whole rounds of every kind; a run too short for one round (--smoke)
  // deals a seeded subset of the kinds instead.
  const std::size_t nkinds = kinds.size();
  const double want = std::max(1.0, std::round(rate * seconds));
  const auto count =
      want < as_double(nkinds)
          ? static_cast<std::size_t>(want)
          : static_cast<std::size_t>(std::round(want / as_double(nkinds))) *
                nkinds;
  std::vector<svc::JobSpec> jobs = svc::make_trace(seed, count, mix_of(w));
  std::vector<std::size_t> deal(std::max(count, nkinds));
  for (std::size_t i = 0; i < deal.size(); ++i) deal[i] = i % nkinds;
  dsm::SplitMix64 rng(dsm::mix_seed(kScheduleSeed, 0xdea1));
  for (std::size_t i = deal.size() - 1; i > 0; --i) {
    std::swap(deal[i], deal[rng.next_below(i + 1)]);
  }
  deal.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Kind& k = kinds[deal[i]];
    jobs[i].n = k.n;
    jobs[i].nprocs = k.p;
    jobs[i].dist = k.dist;
    jobs[i].record = k.record;
  }
  return jobs;
}

/// Records a live cluster job leaves in the journal (without retries): its
/// admission, plan, attempt start, dispatch, one mark per progress site and
/// its terminal record.
std::vector<svc::JournalRecord> journal_records_of(
    const svc::JobSpec& job, std::uint64_t seq, const svc::JobResult& res,
    const SiteClock& clock) {
  std::vector<svc::JournalRecord> recs;
  svc::JournalRecord r;
  r.seq = seq;
  r.type = svc::RecordType::kAdmit;
  r.job = job;
  r.job.svc_seq = seq;
  recs.push_back(r);
  r = svc::JournalRecord{};
  r.seq = seq;
  r.type = svc::RecordType::kPlanned;
  r.plan = res.plan;
  recs.push_back(r);
  r.type = svc::RecordType::kAttemptStart;
  recs.push_back(r);
  r.type = svc::RecordType::kDispatch;
  r.site = "worker-0";
  recs.push_back(r);
  for (const SiteClock::Site& s : clock.sites) {
    r.type = svc::RecordType::kMark;
    r.site = s.name;
    recs.push_back(r);
  }
  r.type = svc::RecordType::kTerminal;
  r.site.clear();
  r.result = res;
  recs.push_back(r);
  for (std::size_t i = 0; i < recs.size(); ++i) recs[i].lsn = seq * 64 + i;
  return recs;
}

/// The kTask, kMark* and kDone messages one remote attempt exchanges.
std::vector<cluster::WireMessage> wire_messages_of(
    const svc::JobSpec& job, std::uint64_t seq, const svc::Plan& plan,
    bool audit, const sort::SortResult& r, const SiteClock& clock,
    std::uint64_t task_id) {
  std::vector<cluster::WireMessage> msgs;
  cluster::WireMessage task;
  task.type = cluster::MsgType::kTask;
  task.task_id = task_id;
  task.job = job;
  task.job.svc_seq = seq;
  task.plan = plan;
  task.audit = audit;
  task.heartbeat_ms = kHeartbeatMs;
  task.check_integrity = true;
  task.expect = r.input_checksum;
  msgs.push_back(task);
  if (!audit) {
    for (const SiteClock::Site& s : clock.sites) {
      cluster::WireMessage mark;
      mark.type = cluster::MsgType::kMark;
      mark.task_id = task_id;
      mark.site = s.name;
      mark.virtual_ns = s.virtual_ns;
      msgs.push_back(mark);
    }
  }
  cluster::WireMessage done;
  done.type = cluster::MsgType::kDone;
  done.task_id = task_id;
  done.ok = true;
  done.measured_ns = r.elapsed_ns;
  done.passes = r.passes;
  done.verified = r.verified;
  done.input_cs = r.input_checksum;
  done.run_hash = r.run_hash;
  msgs.push_back(done);
  return msgs;
}

/// Master-side integrity fingerprint from a cold input cache: the work
/// svc/server's expected_input_checksum does for every dispatched attempt.
sort::Checksum cold_checksum(const svc::JobSpec& job, int radix_bits) {
  sort::input_cache_clear();
  const dsm::sas::HomeMap homes(job.n, job.nprocs);
  std::vector<dsm::Key> scratch(static_cast<std::size_t>(job.n));
  return sort::generate_partitions_cached(
      job.dist, job.n, job.nprocs, radix_bits, job.seed, homes, [&](int r) {
        return std::span<dsm::Key>(
            scratch.data() + homes.begin_of(r),
            static_cast<std::size_t>(homes.count_of(r)));
      });
}

/// Serial layer replay of every completed job of the traced live run, in
/// processing order, through the layers' public entry points.
void replay(const ServiceWorkload& w, const std::vector<svc::JobSpec>& trace,
            const LiveRun& live, const LiveTrace& hooks, SpanLog& log,
            LayerReport& lr, RunReport& rep) {
  svc::Planner planner{svc::PlannerConfig{}};

  // Admission seq of each job: warm-up jobs took the first seqs, then the
  // accepted trace jobs in submission order.
  std::vector<std::uint64_t> seq_of(trace.size(), 0);
  std::map<std::uint64_t, std::uint64_t> id_of_seq;
  std::uint64_t next_seq = live.warmup;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (live.jobs[i].admission != svc::Admission::kAccepted) continue;
    seq_of[i] = next_seq;
    id_of_seq[next_seq] = i;
    ++next_seq;
  }
  std::vector<double> fsync_s_by_id(trace.size(), 0.0);
  for (const LiveTrace::Fsync& f : hooks.fsyncs()) {
    const auto it = id_of_seq.find(f.seq);
    if (it == id_of_seq.end()) continue;
    fsync_s_by_id[it->second] += f.end - f.start;
    log.add("svc.journal.fsync", f.start, f.end, -1, it->second);
  }
  std::vector<double> attempt_s_by_id(trace.size(), 0.0);
  for (const LiveTrace::Attempt& a : hooks.attempts()) {
    if (!a.audit && a.job < trace.size()) {
      attempt_s_by_id[a.job] += a.end - a.start;
    }
  }

  std::optional<cluster::ChannelPair> wire;
  if (w.durable_cluster) {
    Result<cluster::ChannelPair> pair = cluster::make_socketpair();
    if (!pair.ok()) throw std::runtime_error(pair.status().to_string());
    wire = std::move(pair).value();
  }

  std::uint64_t replayed = 0;
  std::uint64_t task_id = 0;
  double rel_err = 0;
  for (const svc::JobResult& res : live.results) {
    if (res.id >= trace.size() || res.status != svc::JobStatus::kOk) continue;
    const svc::JobSpec& job = trace[res.id];
    const std::uint64_t seq = seq_of[res.id];
    const double t_root = now_s();
    const int root = log.add("job", t_root, t_root, -1, res.id);

    double t = now_s();
    const Result<svc::Plan> plan = planner.try_plan(job);
    const double t_plan = now_s();
    log.add("svc.planner.plan", t, t_plan, root, res.id);
    lr.plan_us.push_back((t_plan - t) * 1e6);
    if (!plan.ok()) rep.problems.push_back("replay planning failed");

    TimedSort primary;
    primary.run(svc::sort_spec_for(job, res.plan.algo, res.plan.model,
                                   res.plan.radix_bits),
                true);
    if (!primary.result.ok() ||
        !same_bits(primary.result->elapsed_ns, res.measured_ns)) {
      rep.problems.push_back("replay of job " + std::to_string(res.id) +
                             " did not reproduce its measured_ns");
      continue;
    }
    ++replayed;
    SortLayers layers;
    sort_layers(primary.clock, &layers, &log, "sort", root, res.id);
    lr.add_sort(layers, job.n);
    lr.cache_hits += as_double(primary.hits);
    lr.cache_misses += as_double(primary.misses);

    TimedSort audit;
    const bool audited = res.audited && res.runner_measured_ns > 0;
    if (audited) {
      audit.run(svc::sort_spec_for(job, res.plan.runner_algo,
                                   res.plan.runner_model,
                                   res.plan.runner_radix_bits),
                true);
      if (!audit.result.ok() ||
          !same_bits(audit.result->elapsed_ns, res.runner_measured_ns)) {
        rep.problems.push_back("audit replay of job " +
                               std::to_string(res.id) +
                               " did not reproduce its runner-up time");
      } else {
        sort_layers(audit.clock, nullptr, &log, "svc.server.audit", root,
                    res.id);
        lr.audit_s += audit.clock.exit - audit.clock.entry;
        lr.cache_hits += as_double(audit.hits);
        lr.cache_misses += as_double(audit.misses);
      }
    }

    if (w.durable_cluster) {
      t = now_s();
      const sort::Checksum cs = cold_checksum(job, res.plan.radix_bits);
      if (audited) cold_checksum(job, res.plan.runner_radix_bits);
      log.add("cluster.master.integrity", t, now_s(), root, res.id);
      lr.integrity_s += now_s() - t;
      if (!(cs == primary.result->input_checksum)) {
        rep.problems.push_back("integrity fingerprint mismatch in replay");
      }

      std::vector<cluster::WireMessage> msgs = wire_messages_of(
          job, seq, res.plan, false, *primary.result, primary.clock,
          task_id++);
      if (audited && audit.result.ok()) {
        svc::Plan runner = res.plan;
        runner.algo = res.plan.runner_algo;
        runner.model = res.plan.runner_model;
        runner.radix_bits = res.plan.runner_radix_bits;
        const auto more = wire_messages_of(job, seq, runner, true,
                                           *audit.result, audit.clock,
                                           task_id++);
        msgs.insert(msgs.end(), more.begin(), more.end());
      }
      std::vector<std::string> frames;
      t = now_s();
      for (const cluster::WireMessage& m : msgs) {
        frames.push_back(cluster::encode_message(m));
      }
      const double t_enc = now_s();
      log.add("cluster.frame.encode", t, t_enc, root, res.id);
      lr.encode_us.push_back((t_enc - t) * 1e6);
      bool decoded = true;
      for (const std::string& f : frames) {
        decoded = cluster::decode_message(f).ok() && decoded;
        lr.frame_bytes += as_double(f.size() + 8);
      }
      const double t_dec = now_s();
      log.add("cluster.frame.decode", t_enc, t_dec, root, res.id);
      lr.decode_us.push_back((t_dec - t_enc) * 1e6);
      if (!decoded) rep.problems.push_back("replayed frame failed to decode");

      // Round trip of the job's task frame out and done frame back.
      t = now_s();
      const bool rtt_ok = wire->parent.send_frame(frames.front()).ok() &&
                          wire->child.recv_frame().ok() &&
                          wire->child.send_frame(frames.back()).ok() &&
                          wire->parent.recv_frame().ok();
      log.add("cluster.transport.rtt", t, now_s(), root, res.id);
      lr.rtt_us.push_back((now_s() - t) * 1e6);
      if (!rtt_ok) rep.problems.push_back("transport round trip failed");

      t = now_s();
      for (const svc::JournalRecord& r :
           journal_records_of(job, seq, res, primary.clock)) {
        lr.journal_bytes += as_double(svc::encode_record(r).size() + 8);
      }
      log.add("svc.journal.encode", t, now_s(), root, res.id);

      const double local_ms =
          (primary.clock.exit - primary.clock.entry) * 1e3;
      lr.attempt_overhead_ms.push_back(attempt_s_by_id[res.id] * 1e3 -
                                       local_ms);
    }
    const double t_end = now_s();
    log.set_end(root, t_end);
    const double serial_ms =
        (t_end - t_root + fsync_s_by_id[res.id]) * 1e3;
    lr.wait_ms.push_back(live.latency_by_id[res.id] - serial_ms);

    // How well the calibrating planner predicts the plan the live run
    // executed, before it learns from this job.
    svc::JobSpec pinned = job;
    pinned.force_algo = res.plan.algo;
    pinned.force_model = res.plan.model;
    pinned.force_radix_bits = res.plan.radix_bits;
    const Result<svc::Plan> calibrated = planner.try_plan(pinned);
    if (calibrated.ok()) {
      rel_err += std::fabs(calibrated->predicted_ns - res.measured_ns) /
                 res.measured_ns;
    }
    planner.observe(res.plan, res.measured_ns);
  }
  lr.jobs = as_double(replayed);
  lr.rel_err_cal = rel_err / std::max(1.0, lr.jobs);
  if (replayed != live.ok) {
    rep.problems.push_back("replayed " + std::to_string(replayed) + " of " +
                           std::to_string(live.ok) + " completed jobs");
  }
  rep.notes.push_back("replay: measured_ns reproduced bit for bit for " +
                      std::to_string(replayed) + " of " +
                      std::to_string(live.ok) + " completed jobs");
}

RunReport run_service(const ServiceWorkload& w, const RunOptions& opt) {
  RunReport rep;
  const std::vector<svc::JobSpec> trace =
      make_jobs(w, opt.seed, opt.seconds, w.rate);
  const std::vector<double> offsets =
      arrival_offsets(trace.size(), opt.seconds, opt.probe_capacity);

  const int reps = opt.trace || opt.probe_capacity ? 1 : kSetupReps;
  const LiveRun live =
      run_live(w, opt, trace, offsets, reps, nullptr, "live");
  if (opt.probe_capacity) {
    rep.attempted = live.jobs.size();
    rep.failed = live.failed + live.rejected;
    rep.metrics = {{"capacity_jobs_per_s",
                    as_double(live.ok) / (live.end - live.t0), "jobs/s"}};
    return rep;
  }
  account(live, w.name, rep);
  const double ok = std::max(1.0, as_double(live.ok));
  const double p50 = percentile(live.latency_ms, 0.5);
  const double p95 = percentile(live.latency_ms, 0.95);

  if (!opt.trace) {
    rep.notes.push_back(latency_note(p50, p95));
    rep.notes.push_back(setup_note(live.setup_s));
    rep.metrics = {
        {"setup_s", median(live.setup_s), "s"},
        {"jobs_per_s", as_double(live.ok) / (live.end - live.t0), "jobs/s"},
        {"cpu_ms_per_job", live.cpu_s * 1e3 / ok, "ms"},
        {"peak_rss_mb", usage_now().rss_mb, "MB"},
    };
    return rep;
  }

  LiveTrace hooks;
  const LiveRun traced =
      run_live(w, opt, trace, offsets, 1, &hooks, "traced");
  account(traced, w.name, rep);

  LayerReport lr;
  lr.job_ms_p50 = p50;
  lr.job_ms_p95 = p95;
  SpanLog log;
  replay(w, trace, traced, hooks, log, lr, rep);

  for (const LiveJob& j : traced.jobs) lr.admit_us.push_back(j.admit_us);
  lr.lateness_ms = lateness_ms(traced);
  lr.depth_hwm = traced.depth_hwm;
  lr.rejected = as_double(traced.rejected);
  double audited = 0;
  double hits = 0;
  for (const svc::JobResult& r : traced.results) {
    if (r.status != svc::JobStatus::kOk) continue;
    lr.retries += as_double(r.attempts.size());
    if (r.audited) {
      audited += 1;
      if (r.plan_hit) hits += 1;
    }
  }
  lr.audits = audited;
  lr.audit_hit_ratio = audited > 0 ? hits / audited : 0;

  const double wall = traced.end - traced.t0;
  for (const LiveTrace::Fsync& f : hooks.fsyncs()) {
    lr.fsync_us.push_back((f.end - f.start) * 1e6);
    lr.fsync_s += f.end - f.start;
  }
  lr.journal_records = as_double(hooks.fsyncs().size());
  lr.snapshots = traced.snapshots;
  double busy = 0;
  for (const LiveTrace::Attempt& a : hooks.attempts()) {
    busy += a.end - a.start;
    if (!a.audit) lr.attempt_ms.push_back((a.end - a.start) * 1e3);
    log.add(a.audit ? "cluster.master.audit_attempt"
                    : "cluster.master.attempt",
            a.start, a.end, -1, a.job);
  }
  if (w.durable_cluster) {
    lr.acks_per_dispatch =
        traced.dispatches > 0 ? traced.acks / traced.dispatches : 0;
    lr.worker_busy_frac = busy / (kClusterWorkers * wall);
  }

  // Over the replayed jobs only: the live attempt and fsync spans above are
  // roots of their own.
  lr.unattributed_frac = log.unattributed_frac("job");
  lr.overhead = (traced.cpu_s / std::max(1.0, as_double(traced.ok))) /
                (live.cpu_s / ok);
  lr.error_rate = as_double(rep.failed) / as_double(rep.attempted);
  if (!opt.out_dir.empty()) {
    log.write_jsonl(opt.out_dir + "/spans-" + w.name + "-" +
                        std::to_string(opt.seed) + ".jsonl",
                    traced.t0);
  }
  rep.metrics = per_layer_metrics(lr);
  return rep;
}

}  // namespace

RunReport run_workload(const RunOptions& opt) {
  if (opt.workload == "fig-sweep") {
    if (opt.probe_capacity) {
      throw std::invalid_argument("--probe-capacity needs a service workload");
    }
    return run_fig_sweep(opt);
  }
  for (const ServiceWorkload& w : kServiceWorkloads) {
    if (opt.workload == w.name) return run_service(w, opt);
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace bench
