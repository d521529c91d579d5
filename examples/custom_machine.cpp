// "What if the machine were different?" — the reproduction's machine
// model is fully parameterised, so the paper's conclusions can be
// re-examined under hypothetical hardware. This example contrasts the
// real Origin 2000 against two variants:
//   * a "fast network" machine (4x bulk bandwidth, half the software
//     message overheads) — communication-bound gaps shrink;
//   * a "slow directory" machine (4x coherence occupancy) — the CC-SAS
//     scattered-write collapse gets dramatically worse.
//
//   ./build/examples/custom_machine [--n 4M] [--procs 32]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sort/sort_api.hpp"

namespace {

using namespace dsm;

double run_with(sort::Model m, Index n, int procs,
                const machine::MachineParams& mp) {
  sort::SortSpec spec;
  spec.algo = sort::Algo::kRadix;
  spec.model = m;
  spec.nprocs = procs;
  spec.n = n;
  spec.radix_bits = 8;
  spec.machine = mp;
  return sort::try_run_sort(spec).value().elapsed_ns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    ArgParser args(argc, argv);
    args.check_known({"n", "procs"});
    const Index n = parse_count(args.get("n", "4M"));
    const int procs = static_cast<int>(args.get_int("procs", 32));

    machine::MachineParams origin =
        machine::MachineParams::origin2000_for_keys(n);

    machine::MachineParams fast_net = origin;
    fast_net.mem.bulk_copy_bytes_per_ns *= 4;
    fast_net.sw.mpi_send_overhead_ns /= 2;
    fast_net.sw.mpi_recv_overhead_ns /= 2;
    fast_net.sw.shmem_get_overhead_ns /= 2;
    fast_net.sw.shmem_put_overhead_ns /= 2;

    machine::MachineParams slow_dir = origin;
    slow_dir.mem.dir_occupancy_ns *= 4;
    slow_dir.mem.scattered_write_issue_ns *= 2;

    std::cout << "Radix sort (" << fmt_count(n) << " keys, " << procs
              << " procs) on three machine configurations (us):\n\n";

    TextTable t({"model", "Origin 2000", "fast network", "slow directory"});
    for (const sort::Model m : {sort::Model::kShmem, sort::Model::kCcSas,
                                sort::Model::kMpi, sort::Model::kCcSasNew}) {
      t.add_row({sort::model_name(m),
                 fmt_fixed(run_with(m, n, procs, origin) / 1e3, 0),
                 fmt_fixed(run_with(m, n, procs, fast_net) / 1e3, 0),
                 fmt_fixed(run_with(m, n, procs, slow_dir) / 1e3, 0)});
    }
    std::cout << t.render()
              << "\nThe paper's model ranking is a property of the "
                 "machine's communication-to-compute balance, not of the "
                 "algorithms alone.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
