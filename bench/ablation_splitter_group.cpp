// Ablation (§3.2 CC-SAS): the splitter-computation group size. The paper
// picks groups of 32 processes, each with one collector; smaller groups
// parallelise the sample sorting but multiply the cross-group merge,
// larger groups serialise more work on one collector.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M", "64", {"groups"});
    ArgParser args(argc, argv);
    const auto groups = args.get_ints("groups", "4,8,16,32,64");
    const int p = env.procs[0];
    bench::banner("Ablation: CC-SAS sample-sort splitter group size (" +
                      std::to_string(p) + " procs)",
                  env);

    TextTable t({"keys", "group size", "time (us)", "splitter phase (us)"});
    for (const auto n : env.sizes) {
      for (const int g : groups) {
        sort::SortSpec spec;
        spec.algo = sort::Algo::kSample;
        spec.model = sort::Model::kCcSas;
        spec.nprocs = p;
        spec.n = n;
        spec.radix_bits = 11;
        spec.ablations.sample_group_size = g;
        const auto res = bench::run_spec(spec, env);
        double splitter_ns = 0;
        for (const auto& [name, b] : res.phases) {
          if (name == "splitters") splitter_ns = b.total_ns();
        }
        t.add_row({fmt_count(n), std::to_string(g),
                   fmt_fixed(res.elapsed_ns / 1e3, 0),
                   fmt_fixed(splitter_ns / 1e3, 0)});
      }
    }
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_splitter_group", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
