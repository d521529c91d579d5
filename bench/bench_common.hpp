// Shared infrastructure for the table/figure reproduction harnesses.
//
// Every harness reproduces one table or figure from the paper. The paper's
// experiments ran 1M-256M keys on a real 64-processor Origin 2000; the
// default sweeps stop at 16M keys (1M,4M,16M) to keep a run to minutes of
// host time — the simulated machine is unchanged, and all the
// shape-defining regimes (per-processor working set vs 4 MB L2 / TLB
// reach, message-overhead amortisation) are crossed within the default
// range at 16-64 processors. Pass --full for the paper's exact sizes
// (hours of host time at 256M).
//
// Common options: --sizes 1M,4M --procs 16,32,64 --radix 8 --seed 1
//                 --full --csv <dir> --jobs N (0 = all hardware threads;
//                 default from DSMSORT_JOBS, else 1)
//                 --kernel-jobs N (host threads per simulated rank inside
//                 the kernel loops; 0 = all hardware threads, default 1)
// The host settings (--jobs, --kernel-jobs) change only host wall-clock:
// every virtual time and table is byte-identical.
#pragma once

#include <iostream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "perf/breakdown.hpp"
#include "perf/report.hpp"
#include "sim/sweep.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::bench {

struct BenchEnv {
  std::vector<std::uint64_t> sizes;
  std::vector<int> procs;
  int radix_bits = 8;
  std::uint64_t seed = 1;
  int jobs = 1;         // host threads for independent sweep cells
  int kernel_jobs = 1;  // host threads per simulated rank's kernel loops
  std::string csv_dir;  // empty = no CSV output

  bool want_csv() const { return !csv_dir.empty(); }
};

/// Read the common options from `args`, whose flags the caller has
/// already checked; an option absent from `args` keeps its default.
inline BenchEnv read_env(const ArgParser& args,
                         const std::string& default_sizes,
                         const std::string& default_procs) {
  BenchEnv env;
  env.sizes = args.get_counts(
      "sizes", args.has("full") ? "1M,4M,16M,64M,256M" : default_sizes);
  env.procs = args.get_ints("procs", default_procs);
  env.radix_bits = static_cast<int>(args.get_int("radix", 8));
  env.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  env.jobs = sim::resolve_jobs(static_cast<int>(
      args.get_int("jobs", sim::default_jobs())));
  env.kernel_jobs =
      sim::resolve_jobs(static_cast<int>(args.get_int("kernel-jobs", 1)));
  env.csv_dir = args.get("csv", "");
  return env;
}

/// Parse the common options. `extra_known` lists harness-specific options.
inline BenchEnv parse_env(int argc, char** argv,
                          const std::string& default_sizes = "1M,4M,16M",
                          const std::string& default_procs = "16,32,64",
                          std::vector<std::string> extra_known = {}) {
  ArgParser args(argc, argv);
  std::vector<std::string> known{"sizes", "procs", "radix", "seed",
                                 "full",  "csv",   "jobs",  "kernel-jobs"};
  known.insert(known.end(), extra_known.begin(), extra_known.end());
  args.check_known(known);
  return read_env(args, default_sizes, default_procs);
}

/// The host settings a harness runs with, for its banner.
inline std::string host_settings(const BenchEnv& env) {
  return "kernel-jobs: " + std::to_string(env.kernel_jobs) + " (isa " +
         sort::kernel_isa_name() + ")  jobs: " + std::to_string(env.jobs);
}

/// Print the standard harness banner.
inline void banner(const std::string& what, const BenchEnv& env) {
  std::cout << "== " << what << " ==\n"
            << "   simulated machine: 64-way SGI Origin 2000 (virtual time)\n"
            << "   sizes:";
  for (const auto s : env.sizes) std::cout << ' ' << fmt_count(s);
  std::cout << "  procs:";
  for (const int p : env.procs) std::cout << ' ' << p;
  std::cout << "  " << host_settings(env) << "\n\n";
}

/// Sequential radix baseline cache (Table 1 numbers), keyed by
/// (n, dist, radix); uses the paper's page-size policy for n. Shared
/// across a whole sweep run: each baseline is computed once, by its first
/// caller — in a sweep, the worker about to sort that input, so its
/// thread-local input cache already holds it — while concurrent callers
/// for the same key wait for that result.
class BaselineCache {
 public:
  explicit BaselineCache(std::uint64_t seed) : seed_(seed) {}

  double ns(Index n, keys::Dist dist, int radix_bits) {
    Entry* e = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      e = &cache_[pack(n, dist, radix_bits)];  // nodes never move
    }
    std::call_once(e->once, [&] {
      e->ns = sort::seq_baseline_ns(
          n, dist, radix_bits, machine::MachineParams::origin2000_for_keys(n),
          seed_);
    });
    return e->ns;
  }

 private:
  struct Entry {
    std::once_flag once;
    double ns = 0;
  };

  static std::uint64_t pack(Index n, keys::Dist dist, int radix_bits) {
    // n < 2^55 keys, dist < 16, radix_bits <= 20 < 32.
    return (static_cast<std::uint64_t>(n) << 9) |
           (static_cast<std::uint64_t>(dist) << 5) |
           static_cast<std::uint64_t>(radix_bits);
  }

  std::uint64_t seed_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> cache_;
};

/// Run one sort with the harness's seed and kernel jobs, on the paper's
/// page policy.
inline sort::SortResult run_spec(sort::SortSpec spec, const BenchEnv& env) {
  spec.seed = env.seed;
  spec.kernel_jobs = env.kernel_jobs;
  return sort::try_run_sort(spec).value();
}

/// Write CSV if requested.
inline void maybe_csv(const BenchEnv& env, const std::string& name,
                      const TextTable& table) {
  if (!env.want_csv()) return;
  const std::string path = env.csv_dir + "/" + name + ".csv";
  perf::write_file(path, table.render_csv());
  std::cout << "(csv written to " << path << ")\n";
}

/// The joint sweep behind Tables 2 and 3: for each (n, p, algorithm),
/// minimise execution time over programming models and radix sizes.
struct BestCell {
  double ns = 0;
  sort::Model model = sort::Model::kShmem;
  int radix_bits = 0;
};

inline BestCell best_over_models_and_radixes(
    sort::Algo algo, Index n, int procs, const std::vector<int>& radixes,
    const BenchEnv& env) {
  static constexpr sort::Model kRadixModels[] = {
      sort::Model::kCcSas, sort::Model::kCcSasNew, sort::Model::kMpi,
      sort::Model::kShmem};
  static constexpr sort::Model kSampleModels[] = {
      sort::Model::kCcSas, sort::Model::kMpi, sort::Model::kShmem};

  const auto models = algo == sort::Algo::kRadix
                          ? std::span<const sort::Model>(kRadixModels)
                          : std::span<const sort::Model>(kSampleModels);
  // The models of one radix size run back to back, so they charge one
  // retained record (DESIGN.md §5.3); ties still go to the first model,
  // then the first radix size.
  std::vector<double> ns(models.size() * radixes.size());
  for (std::size_t ri = 0; ri < radixes.size(); ++ri) {
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      sort::SortSpec spec;
      spec.algo = algo;
      spec.model = models[mi];
      spec.nprocs = procs;
      spec.n = n;
      spec.radix_bits = radixes[ri];
      ns[mi * radixes.size() + ri] = run_spec(spec, env).elapsed_ns;
    }
  }
  BestCell best;
  best.ns = 1e300;
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    for (std::size_t ri = 0; ri < radixes.size(); ++ri) {
      const double t = ns[mi * radixes.size() + ri];
      if (t < best.ns) best = BestCell{t, models[mi], radixes[ri]};
    }
  }
  return best;
}

/// The Tables 2/3 sweep on the sweep pool: one cell per
/// (n, algo ∈ {radix, sample}, p), in that nesting order — the row-major
/// order both tables consume. One cell keeps all its model x radix runs
/// on one worker (shared thread-local input cache).
inline std::vector<BestCell> sweep_best_cells(const BenchEnv& env,
                                              const std::vector<int>& radixes) {
  struct Cell {
    std::uint64_t n = 0;
    sort::Algo algo = sort::Algo::kRadix;
    int p = 0;
  };
  std::vector<Cell> cells;
  for (const auto n : env.sizes) {
    for (const sort::Algo a : {sort::Algo::kRadix, sort::Algo::kSample}) {
      for (const int p : env.procs) cells.push_back(Cell{n, a, p});
    }
  }
  return sim::sweep(cells.size(), env.jobs, [&](std::size_t i) {
    return best_over_models_and_radixes(cells[i].algo, cells[i].n, cells[i].p,
                                        radixes, env);
  });
}

}  // namespace dsm::bench
