// Ablation (§4 intro): virtual-memory page size. The paper tuned it per
// size ("for 1M - 64M data sets, it is 64KB; for the 256M data set,
// 256KB") — larger pages extend TLB reach, taming the per-switch refill
// cost of the scattered radix permutation, until home granularity stops
// mattering.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,16M", "64", {"pages"});
    ArgParser args(argc, argv);
    const auto pages = args.get_counts("pages", "16K,64K,256K,1M");
    const int p = env.procs[0];
    bench::banner("Ablation: page size (radix/SHMEM, " + std::to_string(p) +
                      " procs; also the sequential baseline)",
                  env);

    std::vector<std::string> headers{"page"};
    for (const auto n : env.sizes) {
      headers.push_back("seq " + fmt_count(n) + " (us)");
      headers.push_back("par " + fmt_count(n) + " (us)");
    }
    TextTable t(headers);

    // Size outer, page inner: every cell of one size sorts the same gauss
    // input, which the cache holds between them.
    std::vector<std::vector<std::string>> rows(pages.size());
    for (std::size_t k = 0; k < pages.size(); ++k) {
      rows[k].push_back(fmt_count(pages[k]));
    }
    for (const auto n : env.sizes) {
      for (std::size_t k = 0; k < pages.size(); ++k) {
        machine::MachineParams mp = machine::MachineParams::origin2000();
        mp.page_bytes = pages[k];
        const double seq =
            sort::seq_baseline_ns(n, keys::Dist::kGauss, env.radix_bits, mp,
                                  env.seed);
        sort::SortSpec spec;
        spec.algo = sort::Algo::kRadix;
        spec.model = sort::Model::kShmem;
        spec.nprocs = p;
        spec.n = n;
        spec.radix_bits = env.radix_bits;
        spec.machine = mp;
        const double par = bench::run_spec(spec, env).elapsed_ns;
        rows[k].push_back(fmt_fixed(seq / 1e3, 0));
        rows[k].push_back(fmt_fixed(par / 1e3, 0));
      }
    }
    for (auto& row : rows) t.add_row(std::move(row));
    std::cout << t.render();
    bench::maybe_csv(env, "ablation_page_size", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
