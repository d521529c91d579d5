// Model/algorithm advisor: the paper's bottom-line question — "what is
// the best combination of algorithm and programming model for a given
// data-set size and processor count?" — answered by running every
// combination on the simulated Origin 2000 and ranking them.
//
//   ./build/examples/model_comparison --n 4M --procs 32 [--radix 8]
//                                     [--sample-radix 11] [--dist gauss]
#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "perf/breakdown.hpp"
#include "sort/sort_api.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    ArgParser args(argc, argv);
    args.check_known({"n", "procs", "radix", "sample-radix", "dist"});
    const Index n = parse_count(args.get("n", "4M"));
    const int procs = static_cast<int>(args.get_int("procs", 32));
    const int rradix = static_cast<int>(args.get_int("radix", 8));
    const int sradix = static_cast<int>(args.get_int("sample-radix", 11));
    const keys::Dist dist =
        keys::try_dist_from_name(args.get("dist", "gauss")).value();

    std::cout << "Ranking all algorithm x model combinations for "
              << fmt_count(n) << " " << keys::dist_name(dist) << " keys on "
              << procs << " simulated Origin 2000 processors...\n\n";

    struct Entry {
      std::string name;
      sort::SortResult res;
    };
    std::vector<Entry> entries;
    auto add = [&](sort::Algo a, sort::Model m, int radix) {
      sort::SortSpec spec;
      spec.algo = a;
      spec.model = m;
      spec.nprocs = procs;
      spec.n = n;
      spec.radix_bits = radix;
      spec.dist = dist;
      entries.push_back(Entry{std::string(sort::algo_name(a)) + "/" +
                                  sort::model_name(m) + " r" +
                                  std::to_string(radix),
                              sort::try_run_sort(spec).value()});
    };
    for (const sort::Model m : {sort::Model::kCcSas, sort::Model::kCcSasNew,
                                sort::Model::kMpi, sort::Model::kShmem}) {
      add(sort::Algo::kRadix, m, rradix);
    }
    for (const sort::Model m : {sort::Model::kCcSas, sort::Model::kMpi,
                                sort::Model::kShmem}) {
      add(sort::Algo::kSample, m, sradix);
    }

    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.res.elapsed_ns < b.res.elapsed_ns;
              });

    const double base = sort::seq_baseline_ns(
        n, dist, rradix, machine::MachineParams::origin2000_for_keys(n));
    TextTable t({"rank", "combination", "time (us)", "speedup", "busy%",
                 "mem%", "sync%"});
    int rank = 1;
    for (const Entry& e : entries) {
      const auto sum = perf::sum(e.res.per_proc);
      const double total = sum.total_ns();
      t.add_row({std::to_string(rank++), e.name,
                 fmt_fixed(e.res.elapsed_ns / 1e3, 0),
                 fmt_fixed(sort::speedup(base, e.res.elapsed_ns), 1),
                 fmt_fixed(100 * sum.busy_ns / total, 0) + "%",
                 fmt_fixed(100 * sum.mem_ns() / total, 0) + "%",
                 fmt_fixed(100 * sum.sync_ns / total, 0) + "%"});
    }
    std::cout << t.render() << "\nRecommendation: " << entries[0].name
              << " (the paper: sample/CC-SAS for small data sets, "
                 "radix/SHMEM for large)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
