// Ablation (§3.1 SHMEM): receiver-initiated get vs sender-initiated put
// in the radix permutation. The paper chose get: "get has the advantage
// that data are brought into the cache, while put doesn't deposit them in
// the destination cache" — with put, the next pass's histogram sweep
// finds its keys cold.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M,16M", "64");
    const int p = env.procs[0];
    bench::banner("Ablation: SHMEM radix permutation via get vs put (" +
                      std::to_string(p) + " procs)",
                  env);

    TextTable t({"keys", "get (us)", "put (us)", "put/get"});
    for (const auto n : env.sizes) {
      sort::SortSpec spec;
      spec.algo = sort::Algo::kRadix;
      spec.model = sort::Model::kShmem;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = env.radix_bits;

      spec.ablations.shmem_use_put = false;
      const double get_ns = bench::run_spec(spec, env).elapsed_ns;
      spec.ablations.shmem_use_put = true;
      const double put_ns = bench::run_spec(spec, env).elapsed_ns;
      t.add_row({fmt_count(n), fmt_fixed(get_ns / 1e3, 0),
                 fmt_fixed(put_ns / 1e3, 0),
                 fmt_fixed(put_ns / get_ns, 3) + "x"});
    }
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_shmem_getput", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
