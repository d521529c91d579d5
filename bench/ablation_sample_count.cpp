// Ablation (§3.2): number of sample keys per process. The paper uses 128;
// fewer samples make splitter selection cheaper but the output partition
// less balanced (the final local sort and the whole run stretch to the
// most-loaded process); more samples cost splitter time for little gain.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env =
        bench::parse_env(argc, argv, "4M", "64", {"counts", "dist"});
    ArgParser args(argc, argv);
    const auto counts = args.get_ints("counts", "8,16,32,64,128,256,512");
    const keys::Dist dist =
        keys::try_dist_from_name(args.get("dist", "gauss")).value();
    bench::banner("Ablation: sample count per process (sample/CC-SAS, dist " +
                      std::string(keys::dist_name(dist)) + ")",
                  env);

    TextTable t({"keys", "procs", "samples", "time (us)",
                 "imbalance (max/mean)"});
    for (const auto n : env.sizes) {
      for (const int p : env.procs) {
        for (const int s : counts) {
          sort::SortSpec spec;
          spec.algo = sort::Algo::kSample;
          spec.model = sort::Model::kCcSas;
          spec.nprocs = p;
          spec.n = n;
          spec.radix_bits = 11;
          spec.dist = dist;
          spec.ablations.sample_count = s;
          const auto res = bench::run_spec(spec, env);
          t.add_row({fmt_count(n), std::to_string(p), std::to_string(s),
                     fmt_fixed(res.elapsed_ns / 1e3, 0),
                     fmt_fixed(res.imbalance(), 3)});
        }
      }
    }
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_sample_count", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
