// Ablation (§3.1 MPI): one message per contiguously-destined chunk,
// placed directly at its final position (the paper's choice), vs one
// coalesced message per destination with receiver-side reorganisation
// (the NAS-IS style).
//
// Paper finding: per-chunk wins on this machine — the receiver-side
// scatter costs more than the extra message overheads save.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "16,64");
    bench::banner("Ablation: MPI radix message chunking (per-chunk vs "
                  "per-destination)",
                  env);

    TextTable t({"keys", "procs", "per-chunk (us)", "per-dest (us)",
                 "per-dest/per-chunk"});
    for (const auto n : env.sizes) {
      for (const int p : env.procs) {
        sort::SortSpec spec;
        spec.algo = sort::Algo::kRadix;
        spec.model = sort::Model::kMpi;
        spec.nprocs = p;
        spec.n = n;
        spec.radix_bits = env.radix_bits;

        spec.ablations.mpi_chunk_messages = true;
        const double chunk = bench::run_spec(spec, env).elapsed_ns;
        spec.ablations.mpi_chunk_messages = false;
        const double coalesced = bench::run_spec(spec, env).elapsed_ns;
        t.add_row({fmt_count(n), std::to_string(p),
                   fmt_fixed(chunk / 1e3, 0), fmt_fixed(coalesced / 1e3, 0),
                   fmt_fixed(coalesced / chunk, 2) + "x"});
      }
    }
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_msg_chunking", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
