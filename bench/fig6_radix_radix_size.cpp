// Figure 6: radix sort execution time for radix sizes 6-12, relative to
// radix 8, under SHMEM on 64 processors (Gauss keys).
//
// Paper shapes: the effect is much larger for small data sets; small
// radices pay extra passes, large radices pay histogram/communication
// overheads; the optimum grows with data-set size (7-8 small, 11-12
// large); radix 8 is decent everywhere.
#include "bench_common.hpp"

#include "perf/svg.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "64",
                                      {"radixes"});
    ArgParser args(argc, argv);
    const auto radixes = args.get_ints("radixes", "6,7,8,9,10,11,12");
    const int p = env.procs[0];
    bench::banner("Figure 6: radix sort vs radix size (SHMEM, " +
                      std::to_string(p) + " procs, relative to radix 8)",
                  env);

    std::vector<std::string> headers{"radix"};
    for (const auto n : env.sizes) headers.push_back(fmt_count(n));
    TextTable t(headers);

    auto time_of = [&](Index n, int r) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kRadix;
      spec.model = sort::Model::kShmem;
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
    bench::maybe_csv(env, "fig6", t);
    if (env.want_csv()) {
      std::vector<std::string> x_labels;
      for (const int r : radixes) x_labels.push_back(std::to_string(r));
      std::vector<perf::Series> series;
      for (std::size_t i = 0; i < env.sizes.size(); ++i) {
        series.push_back(perf::Series{fmt_count(env.sizes[i]), rel[i]});
      }
      perf::write_file(env.csv_dir + "/fig6.svg",
                       perf::svg_lines("Figure 6: radix size (SHMEM)",
                                       "time relative to radix 8", x_labels,
                                       series));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
