// Figure 7: speedups of sample sort under SHMEM, CC-SAS and MPI on
// 16/32/64 processors, Gauss keys, vs the sequential radix baseline.
//
// Paper shapes: CC-SAS best up to ~4M keys; SHMEM and CC-SAS similar
// beyond that; MPI somewhat behind; far more uniform across models than
// radix sort (one contiguous communication stage).
#include <array>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "16,32,64",
                                      {"sample-radix"});
    ArgParser args(argc, argv);
    // The paper's sample sort prefers larger radices (Fig 10: 11 best).
    const int sradix = static_cast<int>(args.get_int("sample-radix", 11));
    bench::banner("Figure 7: sample sort speedups (Gauss, radix " +
                      std::to_string(sradix) + ")",
                  env);

    const sort::Model kModels[] = {sort::Model::kShmem, sort::Model::kCcSas,
                                   sort::Model::kMpi};
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
          std::array<double, 3> su{};
          for (std::size_t m = 0; m < su.size(); ++m) {
            sort::SortSpec spec;
            spec.algo = sort::Algo::kSample;
            spec.model = kModels[m];
            spec.nprocs = cells[i].p;
            spec.n = cells[i].n;
            spec.radix_bits = sradix;
            su[m] = sort::speedup(base,
                                  bench::run_spec(spec, env).elapsed_ns);
          }
          return su;
        });

    TextTable t({"keys", "procs", "SHMEM", "CC-SAS", "MPI"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::vector<std::string> row{fmt_count(cells[i].n),
                                   std::to_string(cells[i].p)};
      for (const double su : speedups[i]) row.push_back(fmt_fixed(su, 1));
      t.add_row(std::move(row));
    }
    std::cout << t.render();
    bench::maybe_csv(env, "fig7", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
