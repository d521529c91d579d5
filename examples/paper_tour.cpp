// A guided tour of the paper's findings, reproduced live at laptop scale.
// Runs in a couple of minutes and prints each claim from the paper's
// conclusions (§5) next to this reproduction's numbers.
//
//   ./build/examples/paper_tour [--n 1M] [--big 4M] [--procs 32]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "perf/breakdown.hpp"
#include "perf/predictor.hpp"
#include "sort/sort_api.hpp"

namespace {

using namespace dsm;

double run_ns(sort::Algo a, sort::Model m, int p, Index n, int r,
              msg::Impl impl = msg::Impl::kDirect) {
  sort::SortSpec spec;
  spec.algo = a;
  spec.model = m;
  spec.nprocs = p;
  spec.n = n;
  spec.radix_bits = r;
  spec.ablations.mpi_impl = impl;
  return sort::try_run_sort(spec).value().elapsed_ns;
}

void claim(int idx, const std::string& text) {
  std::cout << "\n--- Claim " << idx << ": " << text << "\n";
}

std::string us(double ns) { return fmt_fixed(ns / 1e3, 0) + " us"; }

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    ArgParser args(argc, argv);
    args.check_known({"n", "big", "procs"});
    const Index small_n = parse_count(args.get("n", "1M"));
    const Index big_n = parse_count(args.get("big", "4M"));
    const int p = static_cast<int>(args.get_int("procs", 32));

    std::cout << "Touring the paper's conclusions on the simulated Origin "
                 "2000 (" << p << " processors; small=" << fmt_count(small_n)
              << ", large=" << fmt_count(big_n) << ").\n";

    claim(1, "the naturally structured CC-SAS radix sort suffers from "
             "scattered remote writes; local buffering (CC-SAS-NEW) "
             "greatly improves it at scale");
    const double naive = run_ns(sort::Algo::kRadix, sort::Model::kCcSas, p,
                                big_n * 4, 8);
    const double buffered = run_ns(sort::Algo::kRadix, sort::Model::kCcSasNew,
                                   p, big_n * 4, 8);
    std::cout << "  CC-SAS " << us(naive) << "  vs  CC-SAS-NEW "
              << us(buffered) << "  (" << fmt_fixed(naive / buffered, 2)
              << "x)\n";

    claim(2, "SHMEM is the best model for radix sort at larger data sets; "
             "MPI lags (two-sided overheads, slot back-pressure)");
    const double shm = run_ns(sort::Algo::kRadix, sort::Model::kShmem, p,
                              big_n, 8);
    const double mpi = run_ns(sort::Algo::kRadix, sort::Model::kMpi, p,
                              big_n, 8);
    std::cout << "  SHMEM " << us(shm) << "  vs  MPI " << us(mpi) << "\n";

    claim(3, "the zero-copy 'NEW' MPI beats the staged vendor MPI, "
             "especially for radix sort");
    const double sgi = run_ns(sort::Algo::kRadix, sort::Model::kMpi, p,
                              small_n, 8, msg::Impl::kStaged);
    const double neu = run_ns(sort::Algo::kRadix, sort::Model::kMpi, p,
                              small_n, 8, msg::Impl::kDirect);
    std::cout << "  SGI " << us(sgi) << "  vs  NEW " << us(neu) << "  ("
              << fmt_fixed(sgi / neu, 2) << "x)\n";

    claim(4, "sample sort is far more uniform across programming models");
    double rlo = 1e300, rhi = 0, slo = 1e300, shi = 0;
    for (const sort::Model m : {sort::Model::kCcSas, sort::Model::kMpi,
                                sort::Model::kShmem}) {
      const double rt = run_ns(sort::Algo::kRadix, m, p, big_n, 8);
      const double st = run_ns(sort::Algo::kSample, m, p, big_n, 11);
      rlo = std::min(rlo, rt);
      rhi = std::max(rhi, rt);
      slo = std::min(slo, st);
      shi = std::max(shi, st);
    }
    std::cout << "  model spread: radix " << fmt_fixed(rhi / rlo, 2)
              << "x  vs  sample " << fmt_fixed(shi / slo, 2) << "x\n";

    claim(5, "best combination: sample sort for small per-processor data "
             "sets, radix sort for large");
    const double samp_small = run_ns(sort::Algo::kSample, sort::Model::kCcSas,
                                     p, small_n, 11);
    const double radx_small = run_ns(sort::Algo::kRadix, sort::Model::kShmem,
                                     p, small_n, 8);
    const double samp_big = run_ns(sort::Algo::kSample, sort::Model::kCcSas,
                                   p, big_n * 4, 11);
    const double radx_big = run_ns(sort::Algo::kRadix, sort::Model::kShmem,
                                   p, big_n * 4, 11);
    std::cout << "  " << fmt_count(small_n) << ": sample " << us(samp_small)
              << " vs radix " << us(radx_small) << "\n  "
              << fmt_count(big_n * 4) << ": sample " << us(samp_big)
              << " vs radix " << us(radx_big) << "\n";

    claim(6, "superlinear speedups at large data sets (cache/TLB capacity)");
    const machine::MachineParams mp =
        machine::MachineParams::origin2000_for_keys(big_n * 4);
    const double seq =
        sort::seq_baseline_ns(big_n * 4, keys::Dist::kGauss, 8, mp);
    std::cout << "  radix/SHMEM at " << fmt_count(big_n * 4) << ": speedup "
              << fmt_fixed(seq / run_ns(sort::Algo::kRadix,
                                        sort::Model::kShmem, p, big_n * 4, 8),
                           1)
              << "x on " << p << " processors\n";

    claim(7, "(future work in the paper) a formula predicts performance "
             "per model without running");
    const auto best = perf::predict_best(big_n, p);
    std::cout << "  predict_best(" << fmt_count(big_n) << ", " << p
              << ") = " << sort::algo_name(best.algo) << "/"
              << sort::model_name(best.model) << " r" << best.radix_bits
              << " (" << us(best.total_ns) << " predicted)\n";

    std::cout << "\nDone. See bench/ for the full table/figure harnesses.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
