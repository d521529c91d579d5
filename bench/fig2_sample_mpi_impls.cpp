// Figure 2: speedups of sample sort for the two MPI implementations
// ("SGI" staged vs "NEW" direct), on 16/32/64 processors, Gauss keys.
//
// Paper shape: NEW still wins, but the gap is smaller than for radix sort
// — sample sort has one communication stage and two local sorting stages,
// and one contiguous message per process pair.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv);
    bench::banner("Figure 2: sample sort, SGI (staged) vs NEW (direct) MPI",
                  env);

    bench::BaselineCache baselines(env.seed);
    TextTable t({"keys", "procs", "SGI", "NEW", "NEW/SGI"});
    for (const auto n : env.sizes) {
      const double base = baselines.ns(n, keys::Dist::kGauss, env.radix_bits);
      for (const int p : env.procs) {
        sort::SortSpec spec;
        spec.algo = sort::Algo::kSample;
        spec.model = sort::Model::kMpi;
        spec.nprocs = p;
        spec.n = n;
        spec.radix_bits = env.radix_bits;

        spec.ablations.mpi_impl = msg::Impl::kStaged;
        const double sgi = bench::run_spec(spec, env).elapsed_ns;
        spec.ablations.mpi_impl = msg::Impl::kDirect;
        const double neu = bench::run_spec(spec, env).elapsed_ns;

        t.add_row({fmt_count(n), std::to_string(p),
                   fmt_fixed(sort::speedup(base, sgi), 1),
                   fmt_fixed(sort::speedup(base, neu), 1),
                   fmt_fixed(sgi / neu, 2) + "x"});
      }
    }
    std::cout << t.render();
    bench::maybe_csv(env, "fig2", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
