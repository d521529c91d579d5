// Key-distribution study: generates each of the paper's eight key
// distributions plus the four skewed probes (zipf, dup, almost-sorted,
// adversarial), reports their structural properties (how many keys each
// radix pass moves between processes, how clustered the permutation is),
// and the resulting sort time — making the mechanism behind the paper's
// Figure 5 (and its finding 5) visible.
//
//   ./build/examples/distribution_study [--n 1M] [--procs 16] [--radix 8]
#include <iostream>

#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sas/shared_array.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace {

using namespace dsm;

struct DistStats {
  double moved_frac = 0;   // keys changing owner in pass 0
  double runs_per_key = 0; // bucket-run density (1.0 = fully scattered)
};

// Measure, for pass 0, what fraction of rank 0's keys leave the process
// and how clustered consecutive destinations are.
DistStats measure(keys::Dist d, Index n, int procs, int radix) {
  const sas::HomeMap homes(n, procs);
  std::vector<Key> part(homes.count_of(0));
  keys::GenSpec gs;
  gs.n_total = n;
  gs.nprocs = procs;
  gs.radix_bits = radix;
  keys::generate(d, part, gs);

  // Destination of a key in pass 0 ~ which process owns its digit range.
  const std::uint64_t buckets = std::uint64_t{1} << radix;
  std::uint64_t moved = 0, runs = 0;
  std::uint32_t prev = ~0u;
  for (const Key k : part) {
    const std::uint32_t digit = radix_digit(k, 0, radix);
    const auto dest = static_cast<int>(static_cast<std::uint64_t>(digit) *
                                       static_cast<std::uint64_t>(procs) /
                                       buckets);
    moved += dest != 0 ? 1 : 0;
    runs += digit != prev ? 1 : 0;
    prev = digit;
  }
  DistStats s;
  s.moved_frac = static_cast<double>(moved) / static_cast<double>(part.size());
  s.runs_per_key = static_cast<double>(runs) / static_cast<double>(part.size());
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    ArgParser args(argc, argv);
    args.check_known({"n", "procs", "radix"});
    const Index n = parse_count(args.get("n", "1M"));
    const int procs = static_cast<int>(args.get_int("procs", 16));
    const int radix = static_cast<int>(args.get_int("radix", 8));

    std::cout << "Structure and cost of the paper's eight key "
                 "distributions (" << fmt_count(n) << " keys, " << procs
              << " procs, radix " << radix << ", radix sort / SHMEM):\n\n";

    TextTable t({"dist", "moved in pass 0", "pass-0 runs/key",
                 "sort time (us)", "vs gauss"});
    double gauss_ns = 0;
    const auto add_dist = [&](keys::Dist d) {
      const DistStats s = measure(d, n, procs, radix);
      sort::SortSpec spec;
      spec.algo = sort::Algo::kRadix;
      spec.model = sort::Model::kShmem;
      spec.nprocs = procs;
      spec.n = n;
      spec.radix_bits = radix;
      spec.dist = d;
      const double ns = sort::try_run_sort(spec).value().elapsed_ns;
      if (d == keys::Dist::kGauss) gauss_ns = ns;
      t.add_row({keys::dist_name(d), fmt_fixed(100 * s.moved_frac, 1) + "%",
                 fmt_fixed(s.runs_per_key, 3), fmt_fixed(ns / 1e3, 0),
                 fmt_fixed(ns / gauss_ns, 3)});
    };
    for (const keys::Dist d : keys::kAllDists) add_dist(d);
    t.add_row({"--- skew ---", "", "", "", ""});
    for (const keys::Dist d : keys::kSkewDists) add_dist(d);
    std::cout << t.render()
              << "\n`remote` moves every key on every pass; `local` moves "
                 "none. Their locality advantage (the paper's Figure 5\n"
                 "surprise) emerges in passes >= 2: digits repeat every "
                 "other pass, so the stable permutation leaves the data\n"
                 "pre-clustered for later passes — visible once the "
                 "per-processor working set outgrows the cache/TLB.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
