// Figure 10: sample sort execution time for radix sizes 6-12 (the radix
// of its two local sorts), relative to radix 8, under CC-SAS on 64
// processors (Gauss keys).
//
// Paper shapes: unlike radix sort, small radices never win — local
// sorting dominates, so reducing the number of passes matters more; 11 is
// best up to 64M, 12 at 256M; the best/worst ratio stays under ~2.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "64",
                                      {"radixes"});
    ArgParser args(argc, argv);
    const auto radixes = args.get_ints("radixes", "6,7,8,9,10,11,12");
    const int p = env.procs[0];
    bench::banner("Figure 10: sample sort vs radix size (CC-SAS, " +
                      std::to_string(p) + " procs, relative to radix 8)",
                  env);

    std::vector<std::string> headers{"radix"};
    for (const auto n : env.sizes) headers.push_back(fmt_count(n));
    TextTable t(headers);

    auto time_of = [&](Index n, int r) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kSample;
      spec.model = sort::Model::kCcSas;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = r;
      return bench::run_spec(spec, env).elapsed_ns;
    };

    // Size outer, radix inner: gauss keys do not depend on the radix, so
    // every cell of one size sorts the input the cache already holds.
    std::vector<std::vector<double>> rel(env.sizes.size());
    for (std::size_t i = 0; i < env.sizes.size(); ++i) {
      const double base_ns = time_of(env.sizes[i], 8);
      for (const int r : radixes) {
        rel[i].push_back((r == 8 ? base_ns : time_of(env.sizes[i], r)) /
                         base_ns);
      }
    }

    for (std::size_t j = 0; j < radixes.size(); ++j) {
      std::vector<std::string> row{std::to_string(radixes[j])};
      for (std::size_t i = 0; i < env.sizes.size(); ++i) {
        row.push_back(fmt_fixed(rel[i][j], 3));
      }
      t.add_row(std::move(row));
    }
    std::cout << t.render();
    bench::maybe_csv(env, "fig10", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
