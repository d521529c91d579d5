// Ablation (§4.2): per-pair message-slot depth in the direct ("NEW") MPI
// transport. The paper: 1-deep lock-free buffers cause back-to-back
// messages to the same destination to stall (elevated SYNC); "using
// deeper buffers alleviates the problem, but does not eliminate it ...
// also, adding a buffer requires O(p^2) memory".
#include "bench_common.hpp"

#include "perf/breakdown.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env =
        bench::parse_env(argc, argv, "4M", "64", {"depths"});
    ArgParser args(argc, argv);
    const auto depths = args.get_ints("depths", "1,2,4,8,16");
    bench::banner("Ablation: MPI message-slot depth (radix sort)", env);

    TextTable t({"keys", "procs", "depth", "time (us)", "sum SYNC (us)",
                 "slot memory (KB)"});
    for (const auto n : env.sizes) {
      for (const int p : env.procs) {
        for (const int d : depths) {
          sort::SortSpec spec;
          spec.algo = sort::Algo::kRadix;
          spec.model = sort::Model::kMpi;
          spec.nprocs = p;
          spec.n = n;
          spec.radix_bits = env.radix_bits;
          machine::MachineParams mp =
              machine::MachineParams::origin2000_for_keys(n);
          mp.sw.mpi_slot_depth = d;
          spec.machine = mp;
          const auto res = bench::run_spec(spec, env);
          const double sync = perf::sum(res.per_proc).sync_ns;
          // One cache-line descriptor per slot per ordered pair.
          const double slot_kb =
              static_cast<double>(p) * p * d * 128.0 / 1024.0;
          t.add_row({fmt_count(n), std::to_string(p), std::to_string(d),
                     fmt_fixed(res.elapsed_ns / 1e3, 0),
                     fmt_fixed(sync / 1e3, 0), fmt_fixed(slot_kb, 0)});
        }
      }
    }
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_slot_depth", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
