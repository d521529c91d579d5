// Host wall-clock benchmark for the simulated sweeps and the host radix
// kernels: times one Figure-3 radix sweep, asserts its virtual times are
// identical across a warm and a timed repetition, times the reference vs
// optimized kernel backends with a per-kernel (histogram / permute / copy)
// split per (n, radix_bits) cell, and writes the measurements to
// BENCH_host.json.
//
// Options: the common set (--sizes/--procs/--radix/--seed/--jobs) plus
//   --quick        small sizes + fewer reps (the ctest wiring uses this)
//   --out PATH     where to write the JSON (default BENCH_host.json)
//   --kernels-only skip the sweep; run only the kernel cells (what
//                  scripts/kernel_speed_gate.sh uses)
//   --calibrate    sweep the kernel tunables (staging cap, WC bucket
//                  floor) on this host and print the best values for
//                  the constants that set them, instead of
//                  benchmarking; see EXPERIMENTS.md
#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>
#include <thread>

#include "bench_common.hpp"

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "perf/report.hpp"
#include "sort/kernels.hpp"
#include "sort/merge_sort.hpp"
#include "sort/msd_radix.hpp"
#include "sort/seq_radix.hpp"

namespace {

using namespace dsm;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run the fig3-style sweep (all four radix models per (n, p) cell);
/// returns wall seconds and appends every virtual time, in deterministic
/// cell-major order, to `virt`.
double timed_sweep(const bench::BenchEnv& env, std::vector<double>& virt) {
  static constexpr sort::Model kModels[] = {
      sort::Model::kShmem, sort::Model::kCcSas, sort::Model::kMpi,
      sort::Model::kCcSasNew};
  struct Cell {
    std::uint64_t n = 0;
    int p = 0;
  };
  std::vector<Cell> cells;
  for (const auto n : env.sizes) {
    for (const int p : env.procs) cells.push_back(Cell{n, p});
  }
  const double t0 = now_s();
  const auto times = sim::sweep(
      cells.size(), env.jobs, [&](std::size_t i) {
        std::array<double, 4> cell{};
        for (std::size_t m = 0; m < cell.size(); ++m) {
          sort::SortSpec spec;
          spec.algo = sort::Algo::kRadix;
          spec.model = kModels[m];
          spec.nprocs = cells[i].p;
          spec.n = cells[i].n;
          spec.radix_bits = env.radix_bits;
          spec.seed = env.seed;
          spec.kernel_jobs = env.kernel_jobs;
          cell[m] = sort::try_run_sort(spec).value().elapsed_ns;
        }
        return cell;
      });
  const double wall = now_s() - t0;
  for (const auto& cell : times) {
    virt.insert(virt.end(), cell.begin(), cell.end());
  }
  return wall;
}

/// Wall time of one full sort split by kernel: counting sweeps (plus the
/// bucket prefix scans), permutation passes, and the final copy-back.
struct KernelSplit {
  double hist_s = 0;
  double permute_s = 0;
  double copy_s = 0;
  double total() const { return hist_s + permute_s + copy_s; }

  KernelSplit& operator+=(const KernelSplit& o) {
    hist_s += o.hist_s;
    permute_s += o.permute_s;
    copy_s += o.copy_s;
    return *this;
  }
};

/// One uncharged host sort of `keys` (in place), mirroring seq_radix_sort
/// with a timer around each kernel. Structured exactly like the library
/// driver so the split attributes the same work the sorts execute.
KernelSplit timed_kernel_sort(sort::KernelBackend be, std::span<Key> keys,
                              std::span<Key> tmp, int radix_bits,
                              sort::RadixWorkspace& ws) {
  using sort::KernelBackend;
  const int passes = sort::radix_passes(radix_bits);
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const std::size_t n = keys.size();
  KernelSplit split;
  ws.prepare(radix_bits, passes);
  std::vector<std::uint64_t> cursor(buckets);
  auto prefix_into_cursor = [&](std::span<const std::uint64_t> hist) {
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      cursor[b] = acc;
      acc += hist[b];
    }
  };

  if (be == KernelBackend::kReference) {
    std::span<Key> in = keys;
    std::span<Key> out = tmp.subspan(0, n);
    const std::span<std::uint64_t> hist(ws.hist.data(), buckets);
    for (int pass = 0; pass < passes; ++pass) {
      double t = now_s();
      const std::uint64_t active =
          sort::histogram_kernel(be, in, pass, radix_bits, hist);
      prefix_into_cursor(hist);
      split.hist_s += now_s() - t;
      t = now_s();
      (void)sort::permute_kernel(be, in, out, pass, radix_bits, cursor,
                                 active, ws);
      split.permute_s += now_s() - t;
      std::swap(in, out);
    }
    if (in.data() != keys.data()) {
      const double t = now_s();
      std::copy_n(in.data(), n, keys.data());
      split.copy_s += now_s() - t;
    }
    return split;
  }

  double t = now_s();
  const std::span<std::uint64_t> pass_hist(
      ws.pass_hist.data(), static_cast<std::size_t>(passes) * buckets);
  sort::multi_histogram_kernel(be, keys, passes, radix_bits, pass_hist, ws);
  split.hist_s += now_s() - t;
  bool in_keys = true;
  for (int pass = 0; pass < passes; ++pass) {
    const std::span<const std::uint64_t> hist_p = pass_hist.subspan(
        static_cast<std::size_t>(pass) * buckets, buckets);
    t = now_s();
    const std::uint64_t active = sort::count_active(hist_p);
    if (active <= 1) {
      split.hist_s += now_s() - t;
      continue;
    }
    prefix_into_cursor(hist_p);
    split.hist_s += now_s() - t;
    t = now_s();
    const std::span<Key> src = in_keys ? keys : tmp.subspan(0, n);
    const std::span<Key> dst = in_keys ? tmp.subspan(0, n) : keys;
    (void)sort::permute_kernel(be, src, dst, pass, radix_bits, cursor, active,
                               ws);
    split.permute_s += now_s() - t;
    in_keys = !in_keys;
  }
  if (!in_keys) {
    t = now_s();
    std::copy_n(tmp.data(), n, keys.data());
    split.copy_s += now_s() - t;
  }
  return split;
}

struct KernelCell {
  std::uint64_t n = 0;
  int radix_bits = 0;
  KernelSplit reference;
  KernelSplit optimized;
  double speedup = 0;
};

/// Per-(n, radix_bits) kernel times, best of `reps` full sorts per
/// backend, on the same gauss input both backends must sort identically.
KernelCell timed_kernel_cell(std::uint64_t n, int radix_bits, int reps,
                             std::uint64_t seed) {
  KernelCell cell;
  cell.n = n;
  cell.radix_bits = radix_bits;
  std::vector<Key> input(n);
  keys::GenSpec gen;
  gen.n_total = n;
  gen.nprocs = 1;
  gen.radix_bits = radix_bits;
  gen.seed = seed;
  keys::generate(keys::Dist::kGauss, input, gen);

  std::vector<Key> work(n), tmp(n), expect;
  sort::RadixWorkspace ws;
  // The backends alternate rep by rep, so host noise lands on both alike;
  // odd reps run the optimized side first, so neither always goes second.
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool ref : {rep % 2 == 0, rep % 2 != 0}) {
      const sort::KernelBackend be = ref ? sort::KernelBackend::kReference
                                         : sort::KernelBackend::kOptimized;
      std::copy(input.begin(), input.end(), work.begin());
      const KernelSplit s = timed_kernel_sort(be, work, tmp, radix_bits, ws);
      KernelSplit& best = ref ? cell.reference : cell.optimized;
      if (rep == 0 || s.total() < best.total()) best = s;
      if (ref) {
        expect = work;  // reference's sorted output
      } else {
        DSM_CHECK(work == expect, "kernel backends disagree on sorted output");
      }
    }
  }
  cell.speedup = cell.reference.total() / cell.optimized.total();
  return cell;
}

/// Threaded kernel mode: the same optimized sort with histogram+permute
/// sharded across `jobs` host threads. Output must stay byte-identical to
/// the serial run for every thread count.
struct ThreadedCell {
  std::uint64_t n = 0;
  int radix_bits = 0;
  int jobs = 0;
  double total_s = 0;
  double speedup_vs_serial = 0;
};

std::vector<ThreadedCell> timed_threaded_cells(std::uint64_t n,
                                               const std::vector<int>& radixes,
                                               const std::vector<int>& jobs,
                                               int reps, std::uint64_t seed) {
  std::vector<ThreadedCell> out;
  for (const int rb : radixes) {
    std::vector<Key> input(n);
    keys::GenSpec gen;
    gen.n_total = n;
    gen.nprocs = 1;
    gen.radix_bits = rb;
    gen.seed = seed;
    keys::generate(keys::Dist::kGauss, input, gen);
    std::vector<Key> work(n), tmp(n), serial_sorted;
    double serial_s = 0;
    for (const int j : jobs) {
      sort::RadixWorkspace ws;
      ws.jobs = j;
      double best = 0;
      for (int rep = 0; rep < reps; ++rep) {
        std::copy(input.begin(), input.end(), work.begin());
        const KernelSplit s = timed_kernel_sort(
            sort::KernelBackend::kOptimized, work, tmp, rb, ws);
        if (rep == 0 || s.total() < best) best = s.total();
      }
      if (j == jobs.front()) {
        serial_sorted = work;
        serial_s = best;
      } else {
        DSM_CHECK(work == serial_sorted,
                  "threaded kernel mode changed the sorted output");
      }
      out.push_back(ThreadedCell{n, rb, j, best, serial_s / best});
    }
  }
  return out;
}

/// Key+payload cell: the same optimized full sort with the kv32 payload
/// mirror attached (DESIGN.md §11). Reports the payload-lane overhead;
/// the key lane must sort byte-identically to the plain sort, and the
/// payload lane must land stably attached to its keys.
struct PairedCell {
  std::uint64_t n = 0;
  int radix_bits = 0;
  double plain_s = 0;
  double paired_s = 0;
  double overhead = 0;  // paired / plain
};

PairedCell timed_paired_cell(std::uint64_t n, int radix_bits, int reps,
                             std::uint64_t seed) {
  PairedCell cell;
  cell.n = n;
  cell.radix_bits = radix_bits;
  std::vector<Key> input(n);
  keys::GenSpec gen;
  gen.n_total = n;
  gen.nprocs = 1;
  gen.radix_bits = radix_bits;
  gen.seed = seed;
  // Dup-heavy keys so the stability check below exercises real ties.
  keys::generate(keys::Dist::kDup, input, gen);

  std::vector<Key> work(n), tmp(n);
  std::vector<keys::Payload> pay(n), pay_tmp(n);
  sort::RadixWorkspace ws;
  double best_plain = 0, best_paired = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::copy(input.begin(), input.end(), work.begin());
    const double t0 = now_s();
    sort::seq_radix_sort(work, tmp, radix_bits,
                         sort::KernelBackend::kOptimized, ws);
    const double s = now_s() - t0;
    if (rep == 0 || s < best_plain) best_plain = s;
  }
  const std::vector<Key> plain_sorted = work;
  for (int rep = 0; rep < reps; ++rep) {
    std::copy(input.begin(), input.end(), work.begin());
    for (std::size_t i = 0; i < n; ++i) {
      pay[i] = static_cast<keys::Payload>(i);
    }
    const double t0 = now_s();
    sort::seq_radix_sort(work, tmp, radix_bits,
                         sort::KernelBackend::kOptimized, ws, {pay, pay_tmp});
    const double s = now_s() - t0;
    if (rep == 0 || s < best_paired) best_paired = s;
  }
  DSM_CHECK(work == plain_sorted, "paired sort changed the key lane");
  for (std::size_t i = 0; i < n; ++i) {
    DSM_CHECK(input[pay[i]] == work[i], "payload detached from its key");
    DSM_CHECK(i == 0 || work[i - 1] < work[i] || pay[i - 1] < pay[i],
              "paired sort is not stable");
  }
  cell.plain_s = best_plain;
  cell.paired_s = best_paired;
  cell.overhead = best_plain > 0 ? best_paired / best_plain : 0;
  return cell;
}

/// New-backend kernel cells (DESIGN.md §13): reference vs optimized host
/// wall-clock for the MSD in-place radix and multiway mergesort local
/// sorts, on the distribution each backend exists for plus uniform gauss.
/// Both backends must produce identical sorted keys; the speed gate holds
/// "optimized" to never-slower here exactly as for the LSD kernels.
struct AlgoKernelCell {
  const char* algo = "";
  const char* dist = "";
  std::uint64_t n = 0;
  double reference_s = 0;
  double optimized_s = 0;
  double speedup = 0;
};

AlgoKernelCell timed_algo_kernel_cell(const char* algo, keys::Dist dist,
                                      std::uint64_t n, int reps,
                                      std::uint64_t seed) {
  AlgoKernelCell cell;
  cell.algo = algo;
  cell.dist = keys::dist_name(dist);
  cell.n = n;
  std::vector<Key> input(n);
  keys::GenSpec gen;
  gen.n_total = n;
  gen.nprocs = 1;
  gen.radix_bits = 11;
  gen.seed = seed;
  keys::generate(dist, input, gen);

  std::vector<Key> work(n), tmp(n), expect;
  sort::RadixWorkspace ws;
  const bool is_msd = std::string(algo) == "msd";
  // The backends alternate rep by rep, so host noise lands on both alike;
  // odd reps run the optimized side first, so neither always goes second.
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool ref : {rep % 2 == 0, rep % 2 != 0}) {
      const sort::KernelBackend be = ref ? sort::KernelBackend::kReference
                                         : sort::KernelBackend::kOptimized;
      std::copy(input.begin(), input.end(), work.begin());
      const double t0 = now_s();
      if (is_msd) {
        sort::seq_msd_sort(work, be, ws);
      } else {
        sort::seq_merge_sort(work, tmp, 11, be, ws);
      }
      const double s = now_s() - t0;
      double& best = ref ? cell.reference_s : cell.optimized_s;
      if (rep == 0 || s < best) best = s;
      if (ref) {
        expect = work;
      } else {
        DSM_CHECK(work == expect,
                  "algo kernel backends disagree on sorted output");
      }
    }
  }
  cell.speedup = cell.reference_s / cell.optimized_s;
  return cell;
}

/// --calibrate: sweep the kernel tunables on this host and report the
/// fastest settings. The staging cap decides where the permute leaves
/// one-level write-combining for the two-level scatter (it binds at radix
/// 16: 4 MiB of lines); the WC bucket floor decides how many buckets make
/// staging worthwhile below the DRAM-bound footprint.
int run_calibration(const bench::BenchEnv& env, bool quick) {
  const std::uint64_t n = env.sizes.back();
  const int reps = quick ? 2 : 3;
  std::cout << "  staging cap sweep (radix 16, n=" << fmt_count(n)
            << ", best of " << reps << "):\n";
  const std::size_t saved_cap = sort::kernel_staging_bytes();
  std::size_t best_kb = 0;
  double best_s = 0;
  for (const std::size_t kb : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    sort::set_kernel_staging_bytes(kb * 1024);
    const KernelCell c = timed_kernel_cell(n, 16, reps, env.seed);
    const char* path = (std::size_t{1} << 16) * sort::kWcLineKeys *
                                   sizeof(Key) <=
                               kb * 1024
                           ? "one-level"
                           : "two-level";
    std::cout << "    " << kb << " KiB (" << path << "): optimized "
              << fmt_fixed(c.optimized.total(), 3) << "s ("
              << fmt_fixed(c.speedup, 2) << "x vs reference)\n";
    if (best_kb == 0 || c.optimized.total() < best_s) {
      best_kb = kb;
      best_s = c.optimized.total();
    }
  }
  sort::set_kernel_staging_bytes(saved_cap);

  std::cout << "  WC bucket floor sweep (radix 11, n="
            << fmt_count(env.sizes.front()) << "):\n";
  const std::size_t saved_floor = sort::kernel_wc_min_buckets();
  std::size_t best_floor = 0;
  double best_floor_s = 0;
  for (const std::size_t fl : {128u, 256u, 512u, 1024u, 4096u}) {
    sort::set_kernel_wc_min_buckets(fl);
    const KernelCell c = timed_kernel_cell(env.sizes.front(), 11, reps,
                                           env.seed);
    std::cout << "    " << fl << " buckets: optimized "
              << fmt_fixed(c.optimized.total(), 3) << "s ("
              << fmt_fixed(c.speedup, 2) << "x vs reference)\n";
    if (best_floor == 0 || c.optimized.total() < best_floor_s) {
      best_floor = fl;
      best_floor_s = c.optimized.total();
    }
  }
  sort::set_kernel_wc_min_buckets(saved_floor);

  std::cout << "  fastest: kWcDefaultStagingBytes = " << best_kb
            << " KiB, kWcDefaultMinBuckets = " << best_floor
            << "  (now: " << saved_cap / 1024 << " KiB / " << saved_floor
            << "; edit the constants in src/sort/kernels.hpp)\n";
  return 0;
}

std::string json_split(const KernelSplit& s) {
  std::ostringstream os;
  os << "{\"hist_s\": " << fmt_fixed(s.hist_s, 4)
     << ", \"permute_s\": " << fmt_fixed(s.permute_s, 4)
     << ", \"copy_s\": " << fmt_fixed(s.copy_s, 4)
     << ", \"total_s\": " << fmt_fixed(s.total(), 4) << "}";
  return os.str();
}

std::string json_list(const std::vector<std::uint64_t>& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << v[i];
  }
  os << ']';
  return os.str();
}

std::string json_list(const std::vector<int>& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << v[i];
  }
  os << ']';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const bool quick = [&] {
      ArgParser probe(argc, argv);
      return probe.has("quick");
    }();
    auto env = bench::parse_env(argc, argv,
                                quick ? "64K,256K" : "1M,4M,16M",
                                quick ? "16,64" : "16,32,64",
                                {"quick", "out", "kernels-only", "calibrate"});
    ArgParser args(argc, argv);
    const std::string out_path = args.get("out", "BENCH_host.json");
    const bool kernels_only = args.has("kernels-only");
    if (args.has("calibrate")) {
      bench::banner("Host kernel tunable calibration", env);
      return run_calibration(env, quick);
    }
    bench::banner(kernels_only ? "Host wall-clock: radix kernel backends"
                               : "Host wall-clock: fig3 sweep and kernels",
                  env);

    double sweep_wall = 0;
    if (!kernels_only) {
      // One size at a time: an untimed sweep warms the thread-local input
      // cache and the per-size page-policy state, so the timed sweep runs
      // on the input the cache holds.
      for (const auto n : env.sizes) {
        bench::BenchEnv one = env;
        one.sizes = {n};
        std::vector<double> warm_virt, virt;
        (void)timed_sweep(one, warm_virt);
        sweep_wall += timed_sweep(one, virt);
        DSM_CHECK(virt == warm_virt,
                  "virtual times changed between repetitions");
      }
    }

    // Kernel backends: per-(n, radix_bits) cells with a histogram /
    // permute / copy split. The fig3-default aggregate sums the cells at
    // the sweep's radix width — the kernel work the figure sweeps execute.
    // Best-of-5 on the full sizes: this is a shared host and the 1M cells
    // run in ~15 ms, where one scheduler preemption swings a cell 20%.
    const int kernel_reps = quick ? 3 : 5;
    std::vector<int> kernel_radix{8, 11, 16};
    if (std::find(kernel_radix.begin(), kernel_radix.end(), env.radix_bits) ==
        kernel_radix.end()) {
      kernel_radix.insert(kernel_radix.begin(), env.radix_bits);
    }
    std::vector<KernelCell> kernel_cells;
    KernelSplit fig3_ref, fig3_opt;
    for (const auto n : env.sizes) {
      for (const int rb : kernel_radix) {
        kernel_cells.push_back(timed_kernel_cell(n, rb, kernel_reps,
                                                 env.seed));
        if (rb == env.radix_bits) {
          fig3_ref += kernel_cells.back().reference;
          fig3_opt += kernel_cells.back().optimized;
        }
      }
    }
    const double fig3_kernel_speedup = fig3_ref.total() / fig3_opt.total();

    // Threaded kernel mode at the largest size: jobs must not change the
    // sorted bytes; speedup over jobs=1 is informational (1-core hosts
    // see ~1.0x or the small sharding overhead).
    const std::vector<int> thread_jobs{1, 2, 4};
    std::vector<int> thread_radix{env.radix_bits};
    if (env.radix_bits != 16) thread_radix.push_back(16);
    const std::vector<ThreadedCell> threaded = timed_threaded_cells(
        env.sizes.back(), thread_radix, thread_jobs, kernel_reps, env.seed);

    // One key+payload cell at the largest size: the kv32 mirror's host
    // cost relative to the bare-key sort (stability machine-checked).
    const PairedCell paired = timed_paired_cell(
        env.sizes.back(), env.radix_bits, kernel_reps, env.seed);

    // New-backend cells at the largest size: each on uniform gauss plus
    // the distribution its menu entry exists for (DESIGN.md §13).
    const std::vector<AlgoKernelCell> algo_cells = {
        timed_algo_kernel_cell("msd", keys::Dist::kGauss, env.sizes.back(),
                               kernel_reps, env.seed),
        timed_algo_kernel_cell("msd", keys::Dist::kDup, env.sizes.back(),
                               kernel_reps, env.seed),
        timed_algo_kernel_cell("merge", keys::Dist::kGauss, env.sizes.back(),
                               kernel_reps, env.seed),
        timed_algo_kernel_cell("merge", keys::Dist::kAlmostSorted,
                               env.sizes.back(), kernel_reps, env.seed),
    };

    if (!kernels_only) {
      std::cout << "  fig3-style sweep: " << fmt_fixed(sweep_wall, 2)
                << "s (virtual times identical across repetitions)\n";
    }
    std::cout << "  kernel backends (reference -> optimized, best of "
              << kernel_reps << ", isa " << sort::kernel_isa_name()
              << "):\n";
    for (const KernelCell& c : kernel_cells) {
      std::cout << "    n=" << fmt_count(c.n) << " r=" << c.radix_bits
                << ": " << fmt_fixed(c.reference.total(), 3) << "s -> "
                << fmt_fixed(c.optimized.total(), 3) << "s ("
                << fmt_fixed(c.speedup, 2) << "x; hist "
                << fmt_fixed(c.reference.hist_s, 3) << "->"
                << fmt_fixed(c.optimized.hist_s, 3) << " permute "
                << fmt_fixed(c.reference.permute_s, 3) << "->"
                << fmt_fixed(c.optimized.permute_s, 3) << ")\n";
    }
    std::cout << "  fig3-default kernel speedup (radix " << env.radix_bits
              << "): " << fmt_fixed(fig3_kernel_speedup, 2) << "x\n"
              << "  threaded kernel mode (n=" << fmt_count(env.sizes.back())
              << ", optimized, byte-identical output):\n";
    for (const ThreadedCell& c : threaded) {
      std::cout << "    r=" << c.radix_bits << " jobs=" << c.jobs << ": "
                << fmt_fixed(c.total_s, 3) << "s ("
                << fmt_fixed(c.speedup_vs_serial, 2) << "x vs jobs=1)\n";
    }
    std::cout << "  key+payload (kv32) cell (n=" << fmt_count(paired.n)
              << " r=" << paired.radix_bits << ", dup keys): plain "
              << fmt_fixed(paired.plain_s, 3) << "s -> paired "
              << fmt_fixed(paired.paired_s, 3) << "s ("
              << fmt_fixed(paired.overhead, 2) << "x, stable)\n"
              << "  algo backends (reference -> optimized, identical "
              << "output):\n";
    for (const AlgoKernelCell& c : algo_cells) {
      std::cout << "    " << c.algo << " n=" << fmt_count(c.n) << " "
                << c.dist << ": " << fmt_fixed(c.reference_s, 3) << "s -> "
                << fmt_fixed(c.optimized_s, 3) << "s ("
                << fmt_fixed(c.speedup, 2) << "x)\n";
    }

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"host_wallclock\",\n"
       << "  \"host\": {\"hardware_threads\": "
       << std::thread::hardware_concurrency()
       << ", \"kernel_isa\": \"" << sort::kernel_isa_name()
       << "\"},\n"
       << "  \"config\": {\"sizes\": " << json_list(env.sizes)
       << ", \"procs\": " << json_list(env.procs)
       << ", \"radix_bits\": " << env.radix_bits << ", \"jobs\": "
       << env.jobs << ", \"quick\": " << (quick ? "true" : "false")
       << ", \"kernels_only\": " << (kernels_only ? "true" : "false")
       << "},\n"
       << "  \"sweep\": {\"description\": "
       << "\"fig3-style radix sweep, all four models per (n, p) cell\", "
       << "\"wall_s\": " << fmt_fixed(sweep_wall, 3)
       << ", \"virtual_times_repeatable\": true},\n"
       << "  \"kernels\": {\"description\": \"host radix kernel backends, "
       << "uncharged full sorts, best of " << kernel_reps
       << " reps, gauss keys; backends sort byte-identically\",\n"
       << "    \"cells\": [\n";
    for (std::size_t i = 0; i < kernel_cells.size(); ++i) {
      const KernelCell& c = kernel_cells[i];
      js << "      {\"n\": " << c.n << ", \"radix_bits\": " << c.radix_bits
         << ", \"reference\": " << json_split(c.reference)
         << ", \"optimized\": " << json_split(c.optimized)
         << ", \"speedup\": " << fmt_fixed(c.speedup, 3) << "}"
         << (i + 1 < kernel_cells.size() ? "," : "") << "\n";
    }
    js << "    ],\n"
       << "    \"fig3_default\": {\"radix_bits\": " << env.radix_bits
       << ", \"reference\": " << json_split(fig3_ref)
       << ", \"optimized\": " << json_split(fig3_opt)
       << ", \"speedup\": " << fmt_fixed(fig3_kernel_speedup, 3) << "}},\n"
       << "  \"threaded\": {\"description\": \"optimized kernels with "
       << "histogram+permute sharded over host threads; output "
       << "byte-identical to jobs=1 at every thread count\",\n"
       << "    \"cells\": [\n";
    for (std::size_t i = 0; i < threaded.size(); ++i) {
      const ThreadedCell& c = threaded[i];
      js << "      {\"n\": " << c.n << ", \"radix_bits\": " << c.radix_bits
         << ", \"jobs\": " << c.jobs
         << ", \"total_s\": " << fmt_fixed(c.total_s, 4)
         << ", \"speedup_vs_serial\": "
         << fmt_fixed(c.speedup_vs_serial, 3) << "}"
         << (i + 1 < threaded.size() ? "," : "") << "\n";
    }
    js << "    ]},\n"
       << "  \"paired\": {\"description\": \"kv32 record: optimized sort "
       << "with the host payload mirror vs the bare-key sort, dup-heavy "
       << "keys, stability machine-checked\", \"n\": " << paired.n
       << ", \"radix_bits\": " << paired.radix_bits
       << ", \"plain_s\": " << fmt_fixed(paired.plain_s, 4)
       << ", \"paired_s\": " << fmt_fixed(paired.paired_s, 4)
       << ", \"overhead\": " << fmt_fixed(paired.overhead, 3) << "},\n"
       << "  \"algo_kernels\": {\"description\": \"MSD in-place radix and "
       << "multiway mergesort local sorts, reference vs optimized "
       << "backend, uncharged full sorts, best of " << kernel_reps
       << " reps; backends sort identically\",\n"
       << "    \"cells\": [\n";
    for (std::size_t i = 0; i < algo_cells.size(); ++i) {
      const AlgoKernelCell& c = algo_cells[i];
      js << "      {\"algo\": \"" << c.algo << "\", \"dist\": \"" << c.dist
         << "\", \"n\": " << c.n
         << ", \"reference_s\": " << fmt_fixed(c.reference_s, 4)
         << ", \"optimized_s\": " << fmt_fixed(c.optimized_s, 4)
         << ", \"speedup\": " << fmt_fixed(c.speedup, 3) << "}"
         << (i + 1 < algo_cells.size() ? "," : "") << "\n";
    }
    js << "    ]},\n"
       << "  \"notes\": \"The sweep runs each (n, p) cell's four radix "
       << "models back to back, so they share one recorded LSD execution "
       << "(DESIGN.md 5.3). Its independent cells scale with --jobs on a "
       << "multi-core host; the committed BENCH_host.json runs --jobs 1.\"\n"
       << "}\n";
    const Status written = try_write_file_atomic(out_path, js.str());
    if (!written.ok()) throw Error(written);
    std::cout << "(json written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
