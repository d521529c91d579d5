// Figure 8: per-processor time breakdown of sample sort on 64 processors
// (paper: 64M keys; default 16M — pass --n 64M to match).
//
// Three panels: CC-SAS (merged MEM), MPI, SHMEM. Paper shapes: BUSY
// dominates everywhere (two local sorts); communication much smaller and
// more balanced than radix sort; MPI slightly worse (two-sided overhead).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env =
        bench::parse_env(argc, argv, "16M", "64", {"n", "rows", "sample-radix"});
    ArgParser args(argc, argv);
    const Index n = parse_count(args.get("n", fmt_count(env.sizes[0])));
    const int p = env.procs[0];
    const int rows = static_cast<int>(args.get_int("rows", 16));
    const int sradix = static_cast<int>(args.get_int("sample-radix", 11));
    std::cout << "== Figure 8: sample sort time breakdown (" << fmt_count(n)
              << " keys, " << p << " processors, radix " << sradix
              << ") ==\n   " << bench::host_settings(env) << "\n\n";

    struct Panel {
      const char* label;
      sort::Model model;
      bool merge_mem;
    };
    const Panel panels[] = {
        {"(a) CC-SAS", sort::Model::kCcSas, true},
        {"(b) MPI", sort::Model::kMpi, false},
        {"(c) SHMEM", sort::Model::kShmem, false},
    };
    for (const Panel& panel : panels) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kSample;
      spec.model = panel.model;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = sradix;
      const auto res = bench::run_spec(spec, env);
      std::cout << perf::render_breakdown_figure(panel.label, res.per_proc,
                                                 panel.merge_mem, rows)
                << "\n";
      if (env.want_csv()) {
        perf::write_file(env.csv_dir + "/fig8_" +
                             sort::model_name(panel.model) + ".csv",
                         perf::breakdown_csv(res.per_proc));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
