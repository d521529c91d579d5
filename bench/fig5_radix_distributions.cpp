// Figure 5: execution time of radix sort for the eight key distributions,
// relative to Gauss, under SHMEM on 64 processors.
//
// Paper shapes: `local` always fastest (no key movement); the others are
// close to Gauss until the per-processor working set exceeds the cache/TLB
// reach, after which `remote` (and `local`) win via their pre-clustered
// permutation locality; `half` tracks Gauss (aggregate traffic, not
// message count, is what matters).
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "64");
    const int p = env.procs[0];
    bench::banner("Figure 5: radix sort vs key distribution (SHMEM, " +
                      std::to_string(p) + " procs, relative to gauss)",
                  env);

    std::vector<std::string> headers{"dist"};
    for (const auto n : env.sizes) headers.push_back(fmt_count(n));
    TextTable t(headers);

    auto time_of = [&](Index n, keys::Dist d) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kRadix;
      spec.model = sort::Model::kShmem;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = env.radix_bits;
      spec.dist = d;
      return bench::run_spec(spec, env).elapsed_ns;
    };

    // Size outer, distribution inner: the gauss reference and the gauss
    // row sort the same input back to back.
    std::vector<std::vector<double>> rel(env.sizes.size());
    for (std::size_t i = 0; i < env.sizes.size(); ++i) {
      const double gauss_ns = time_of(env.sizes[i], keys::Dist::kGauss);
      for (const keys::Dist d : keys::kAllDists) {
        rel[i].push_back(time_of(env.sizes[i], d) / gauss_ns);
      }
    }

    for (std::size_t j = 0; j < std::size(keys::kAllDists); ++j) {
      std::vector<std::string> row{keys::dist_name(keys::kAllDists[j])};
      for (std::size_t i = 0; i < env.sizes.size(); ++i) {
        row.push_back(fmt_fixed(rel[i][j], 3));
      }
      t.add_row(std::move(row));
    }
    std::cout << t.render();
    bench::maybe_csv(env, "fig5", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
