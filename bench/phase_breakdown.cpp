// Extra analysis (beyond the paper's figures): per-phase time attribution
// for every algorithm x model combination — the quantitative version of
// the paper's §3/§4 prose ("the permutation dominates", "the two local
// sorting phases dominate", "the collective has a fixed cost").
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "4M", "64",
                                      {"sample-radix"});
    ArgParser args(argc, argv);
    const int sradix = static_cast<int>(args.get_int("sample-radix", 11));
    const Index n = env.sizes[0];
    const int p = env.procs[0];
    std::cout << "== Per-phase breakdown (" << fmt_count(n) << " keys, " << p
              << " procs; mean us per process) ==\n   "
              << bench::host_settings(env) << "\n\n";

    auto report = [&](sort::Algo a, sort::Model m, int radix) {
      sort::SortSpec spec;
      spec.algo = a;
      spec.model = m;
      spec.nprocs = p;
      spec.n = n;
      spec.radix_bits = radix;
      const auto res = bench::run_spec(spec, env);
      std::cout << sort::algo_name(a) << " / " << sort::model_name(m)
                << " (radix " << radix << "):\n";
      TextTable t({"phase", "busy", "lmem", "rmem", "sync", "total", "%"});
      double total = 0;
      for (const auto& [name, b] : res.phases) total += b.total_ns();
      for (const auto& [name, b] : res.phases) {
        t.add_row({name, fmt_fixed(b.busy_ns / 1e3, 0),
                   fmt_fixed(b.lmem_ns / 1e3, 0),
                   fmt_fixed(b.rmem_ns / 1e3, 0),
                   fmt_fixed(b.sync_ns / 1e3, 0),
                   fmt_fixed(b.total_ns() / 1e3, 0),
                   fmt_fixed(100 * b.total_ns() / total, 1) + "%"});
      }
      std::cout << t.render() << "\n";
      if (env.want_csv()) {
        bench::maybe_csv(env,
                         std::string("phase_") + sort::algo_name(a) + "_" +
                             sort::model_name(m),
                         t);
      }
    };

    for (const sort::Model m : {sort::Model::kCcSas, sort::Model::kCcSasNew,
                                sort::Model::kMpi, sort::Model::kShmem}) {
      report(sort::Algo::kRadix, m, env.radix_bits);
    }
    for (const sort::Model m : {sort::Model::kCcSas, sort::Model::kMpi,
                                sort::Model::kShmem}) {
      report(sort::Algo::kSample, m, sradix);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
