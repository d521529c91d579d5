// Figure 9: sample sort execution time per key distribution, relative to
// Gauss, under CC-SAS on 64 processors.
//
// Paper shapes: `local` best; distributions barely matter below the
// per-processor cache limit; beyond it `remote` and `half` pull ahead
// (better spatial locality in the local sorting phases) — and the effect
// appears at smaller sizes than in radix sort because sample sort does
// two uninterrupted local sorts.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "64",
                                      {"sample-radix"});
    ArgParser args(argc, argv);
    const int sradix = static_cast<int>(args.get_int("sample-radix", 11));
    const int p = env.procs[0];
    bench::banner("Figure 9: sample sort vs key distribution (CC-SAS, " +
                      std::to_string(p) + " procs, relative to gauss)",
                  env);

    std::vector<std::string> headers{"dist"};
    for (const auto n : env.sizes) headers.push_back(fmt_count(n));
    TextTable t(headers);

    auto time_of = [&](Index n, keys::Dist d) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kSample;
      spec.model = sort::Model::kCcSas;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = sradix;
      spec.dist = d;
      return bench::run_spec(spec, env).elapsed_ns;
    };

    std::vector<double> gauss_ns;
    for (const auto n : env.sizes) {
      gauss_ns.push_back(time_of(n, keys::Dist::kGauss));
    }
    for (const keys::Dist d : keys::kAllDists) {
      std::vector<std::string> row{keys::dist_name(d)};
      for (std::size_t i = 0; i < env.sizes.size(); ++i) {
        const double ns = d == keys::Dist::kGauss
                              ? gauss_ns[i]
                              : time_of(env.sizes[i], d);
        row.push_back(fmt_fixed(ns / gauss_ns[i], 3));
      }
      t.add_row(std::move(row));
    }
    std::cout << t.render();
    bench::maybe_csv(env, "fig9", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
