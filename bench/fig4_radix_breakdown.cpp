// Figure 4: per-processor execution-time breakdown of radix sort on 64
// processors (the paper uses 64M keys; default here is 16M = the paper's
// size scaled with the sweep defaults — pass --n 64M to match exactly).
//
// Four panels: (a) CC-SAS (MEM = LMEM+RMEM merged, as the paper's tools
// force for that model), (b) CC-SAS-NEW, (c) MPI, (d) SHMEM.
//
// Paper shapes: CC-SAS dominated by MEM (protocol interference); NEW
// dramatically lower; MPI shows more SYNC than SHMEM (1-deep slots);
// SHMEM lowest overall.
#include "bench_common.hpp"

#include "perf/svg.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env =
        bench::parse_env(argc, argv, "16M", "64", {"n", "rows"});
    ArgParser args(argc, argv);
    const Index n = parse_count(args.get("n", fmt_count(env.sizes[0])));
    const int p = env.procs[0];
    const int rows = static_cast<int>(args.get_int("rows", 16));
    std::cout << "== Figure 4: radix sort time breakdown (" << fmt_count(n)
              << " keys, " << p << " processors) ==\n   "
              << bench::host_settings(env) << "\n\n";

    struct Panel {
      const char* label;
      sort::Model model;
      bool merge_mem;
    };
    const Panel panels[] = {
        {"(a) CC-SAS", sort::Model::kCcSas, true},
        {"(b) CC-SAS-NEW", sort::Model::kCcSasNew, true},
        {"(c) MPI", sort::Model::kMpi, false},
        {"(d) SHMEM", sort::Model::kShmem, false},
    };
    for (const Panel& panel : panels) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kRadix;
      spec.model = panel.model;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = env.radix_bits;
      const auto res = bench::run_spec(spec, env);
      std::cout << perf::render_breakdown_figure(panel.label, res.per_proc,
                                                 panel.merge_mem, rows)
                << "\n";
      if (env.want_csv()) {
        perf::write_file(env.csv_dir + "/fig4_" +
                             sort::model_name(panel.model) + ".csv",
                         perf::breakdown_csv(res.per_proc));
        perf::write_file(env.csv_dir + "/fig4_" +
                             sort::model_name(panel.model) + ".svg",
                         perf::svg_breakdown(panel.label, res.per_proc,
                                             panel.merge_mem));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
