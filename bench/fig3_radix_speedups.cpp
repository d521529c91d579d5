// Figure 3: speedups of radix sort under SHMEM, CC-SAS, MPI and
// CC-SAS-NEW on 16/32/64 processors, Gauss keys, vs the sequential radix
// baseline (Table 1).
//
// Paper shapes to reproduce:
//   * SHMEM best almost everywhere (CC-SAS wins the smallest size at
//     high processor counts);
//   * the naive CC-SAS collapses at larger sizes (scattered remote writes
//     vs the coherence protocol);
//   * CC-SAS-NEW recovers most of the gap but stays behind SHMEM;
//   * superlinear speedups at large n (capacity effects).
#include <array>

#include "bench_common.hpp"

#include "perf/svg.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv);
    bench::banner("Figure 3: radix sort speedups (Gauss)", env);

    const sort::Model kModels[] = {sort::Model::kShmem, sort::Model::kCcSas,
                                   sort::Model::kMpi, sort::Model::kCcSasNew};

    // Fan the independent (n, p) cells across the sweep pool; a cell's
    // baseline and its four models stay on one worker so they share its
    // thread-local input cache.
    bench::BaselineCache baselines(env.seed);
    struct Cell {
      std::uint64_t n = 0;
      int p = 0;
    };
    std::vector<Cell> cells;
    for (const auto n : env.sizes) {
      for (const int p : env.procs) cells.push_back(Cell{n, p});
    }
    const auto speedups = sim::sweep(
        cells.size(), env.jobs, [&](std::size_t i) {
          const double base =
              baselines.ns(cells[i].n, keys::Dist::kGauss, env.radix_bits);
          std::array<double, 4> su{};
          for (std::size_t m = 0; m < su.size(); ++m) {
            sort::SortSpec spec;
            spec.algo = sort::Algo::kRadix;
            spec.model = kModels[m];
            spec.nprocs = cells[i].p;
            spec.n = cells[i].n;
            spec.radix_bits = env.radix_bits;
            su[m] = sort::speedup(base,
                                  bench::run_spec(spec, env).elapsed_ns);
          }
          return su;
        });

    TextTable t({"keys", "procs", "SHMEM", "CC-SAS", "MPI", "CC-SAS-NEW"});
    std::vector<std::string> x_labels;
    std::vector<perf::Series> series{{"SHMEM", {}}, {"CC-SAS", {}},
                                     {"MPI", {}}, {"CC-SAS-NEW", {}}};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::vector<std::string> row{fmt_count(cells[i].n),
                                   std::to_string(cells[i].p)};
      x_labels.push_back(fmt_count(cells[i].n) + "/" +
                         std::to_string(cells[i].p) + "P");
      for (std::size_t m = 0; m < series.size(); ++m) {
        row.push_back(fmt_fixed(speedups[i][m], 1));
        series[m].values.push_back(speedups[i][m]);
      }
      t.add_row(std::move(row));
    }
    std::cout << t.render();
    bench::maybe_csv(env, "fig3", t);
    if (env.want_csv()) {
      perf::write_file(env.csv_dir + "/fig3.svg",
                       perf::svg_grouped_bars(
                           "Figure 3: radix sort speedups (Gauss)",
                           "speedup", x_labels, series));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
