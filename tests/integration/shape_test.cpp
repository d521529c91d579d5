// Shape tests: the paper's qualitative findings must hold in the model at
// test-sized inputs. These are the scientific invariants the benches then
// reproduce at full scale.
#include <gtest/gtest.h>

#include "perf/breakdown.hpp"
#include "sim/team.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

SortResult run(Algo a, Model m, int p, Index n, int radix = 8,
               keys::Dist d = keys::Dist::kGauss) {
  SortSpec spec;
  spec.algo = a;
  spec.model = m;
  spec.nprocs = p;
  spec.n = n;
  spec.radix_bits = radix;
  spec.dist = d;
  return try_run_sort(spec).value();
}

TEST(Shape, ClockCategoriesSumToTotal) {
  const SortResult res = run(Algo::kRadix, Model::kMpi, 8, 1 << 16);
  for (const auto& b : res.per_proc) {
    EXPECT_NEAR(b.total_ns(),
                b.busy_ns + b.lmem_ns + b.rmem_ns + b.sync_ns, 1e-6);
  }
}

TEST(Shape, DirectMpiBeatsStagedMpiOnRadix) {
  // Figure 1: the authors' zero-copy MPICH ("NEW") outperforms the staged
  // vendor MPI, and the gap comes from communication.
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.nprocs = 16;
  spec.n = 1 << 18;
  spec.ablations.mpi_impl = msg::Impl::kDirect;
  const double direct = try_run_sort(spec).value().elapsed_ns;
  spec.ablations.mpi_impl = msg::Impl::kStaged;
  const double staged = try_run_sort(spec).value().elapsed_ns;
  EXPECT_GT(staged, 1.1 * direct);
}

TEST(Shape, StagedGapSmallerForSampleSort) {
  // Figure 2: sample sort communicates once, so the SGI-vs-NEW gap
  // shrinks relative to radix sort.
  auto gap = [&](Algo a) {
    SortSpec spec;
    spec.algo = a;
    spec.model = Model::kMpi;
    spec.nprocs = 16;
    spec.n = 1 << 18;
    spec.ablations.mpi_impl = msg::Impl::kDirect;
    const double direct = try_run_sort(spec).value().elapsed_ns;
    spec.ablations.mpi_impl = msg::Impl::kStaged;
    return try_run_sort(spec).value().elapsed_ns / direct;
  };
  EXPECT_GT(gap(Algo::kRadix), gap(Algo::kSample));
}

TEST(Shape, BufferedCcSasBeatsNaiveAtScale) {
  // §4.2.1: local buffering repairs the scattered-write CC-SAS radix once
  // the per-pass write volume overflows the cache (writeback floods); at
  // small sizes the two are comparable (the paper's 1M exception).
  const Index n = 1 << 24;
  const double naive = run(Algo::kRadix, Model::kCcSas, 16, n).elapsed_ns;
  const double buffered =
      run(Algo::kRadix, Model::kCcSasNew, 16, n).elapsed_ns;
  EXPECT_GT(naive, 1.3 * buffered);

  // Small sizes: no collapse, so buffering buys little or nothing.
  const Index small = 1 << 18;
  const double naive_s = run(Algo::kRadix, Model::kCcSas, 16, small).elapsed_ns;
  const double buffered_s =
      run(Algo::kRadix, Model::kCcSasNew, 16, small).elapsed_ns;
  EXPECT_LT(naive_s, 1.3 * buffered_s);
}

TEST(Shape, ShmemBestForLargeRadix) {
  // Figure 3 at the large end: SHMEM <= CC-SAS-NEW < CC-SAS, SHMEM < MPI.
  // (At the small end CC-SAS variants can edge SHMEM — the paper's own
  // exception — so this uses a comfortably large per-processor size.)
  const Index n = 1 << 22;
  const int p = 16;
  const double shmem = run(Algo::kRadix, Model::kShmem, p, n).elapsed_ns;
  const double mpi = run(Algo::kRadix, Model::kMpi, p, n).elapsed_ns;
  const double naive = run(Algo::kRadix, Model::kCcSas, p, n).elapsed_ns;
  const double buffered = run(Algo::kRadix, Model::kCcSasNew, p, n).elapsed_ns;
  EXPECT_LT(shmem, mpi);
  EXPECT_LT(shmem, buffered);
  EXPECT_LT(buffered, naive);
}

TEST(Shape, MpiHasHigherSyncThanShmemOnRadix) {
  // §4.2: the 1-deep message slots give MPI elevated SYNC time.
  const Index n = 1 << 19;
  const auto mpi = run(Algo::kRadix, Model::kMpi, 16, n);
  const auto shm = run(Algo::kRadix, Model::kShmem, 16, n);
  const double mpi_sync = perf::sum(mpi.per_proc).sync_ns;
  const double shm_sync = perf::sum(shm.per_proc).sync_ns;
  EXPECT_GT(mpi_sync, shm_sync);
}

TEST(Shape, SampleSortMoreUniformAcrossModels) {
  // §4.3/§4.4: sample sort's model spread is smaller than radix sort's.
  const Index n = 1 << 19;
  const int p = 16;
  auto spread = [&](Algo a) {
    double lo = 1e300, hi = 0;
    for (const Model m : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
      const double t = run(a, m, p, n).elapsed_ns;
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    return hi / lo;
  };
  EXPECT_GT(spread(Algo::kRadix), spread(Algo::kSample));
}

TEST(Shape, CcSasWinsSmallSampleSort) {
  // Figure 7: CC-SAS is best for small data sets (cheap fine-grained
  // histogram/sample collection vs fixed collective costs).
  const Index n = 1 << 14;
  const int p = 16;
  const double ccsas = run(Algo::kSample, Model::kCcSas, p, n).elapsed_ns;
  const double mpi = run(Algo::kSample, Model::kMpi, p, n).elapsed_ns;
  EXPECT_LT(ccsas, mpi);
}

TEST(Shape, SampleBeatsRadixSmall_RadixBeatsSampleLarge) {
  // §4.4: sample sort wins below ~64K keys/proc, radix wins above.
  const int p = 8;
  const double sample_small =
      run(Algo::kSample, Model::kCcSas, p, 1 << 14, 11).elapsed_ns;
  const double radix_small =
      run(Algo::kRadix, Model::kShmem, p, 1 << 14, 8).elapsed_ns;
  EXPECT_LT(sample_small, radix_small);

  // Best-vs-best, as the paper compares: radix's optimum at this size is
  // a larger radix (fewer passes).
  const double sample_large =
      run(Algo::kSample, Model::kCcSas, p, 1 << 21, 11).elapsed_ns;
  const double radix_large =
      run(Algo::kRadix, Model::kShmem, p, 1 << 21, 11).elapsed_ns;
  EXPECT_LT(radix_large, sample_large);
}

TEST(Shape, LocalDistributionFastest) {
  // Figure 5: `local` needs no remote key movement.
  const Index n = 1 << 18;
  const double local =
      run(Algo::kRadix, Model::kShmem, 8, n, 8, keys::Dist::kLocal).elapsed_ns;
  const double gauss =
      run(Algo::kRadix, Model::kShmem, 8, n, 8, keys::Dist::kGauss).elapsed_ns;
  EXPECT_LT(local, gauss);
}

TEST(Shape, RemoteMovesEverything) {
  const Index n = 1 << 17;
  const auto remote =
      run(Algo::kRadix, Model::kShmem, 8, n, 8, keys::Dist::kRemote);
  const auto local =
      run(Algo::kRadix, Model::kShmem, 8, n, 8, keys::Dist::kLocal);
  EXPECT_GT(perf::sum(remote.per_proc).rmem_ns,
            2 * perf::sum(local.per_proc).rmem_ns);
}

TEST(Shape, CapacityEffectBoostsSpeedup) {
  // §4.2: per-processor working sets that fit in cache give superlinear
  // contributions; factoring them out (the paper's estimate) must lower
  // the speedup.
  const Index n = 1 << 21;  // 8 MB of keys: seq footprint exceeds 4 MB L2
  const int p = 16;
  const machine::MachineParams mp =
      machine::MachineParams::origin2000_for_keys(n);
  const double seq = seq_baseline_ns(n, keys::Dist::kGauss, 8, mp);

  sim::SimTeam probe(1, mp);  // measure the sequential MEM share
  std::vector<Key> keys(n), tmp(n);
  keys::GenSpec gs;
  gs.n_total = n;
  gs.nprocs = 1;
  keys::generate(keys::Dist::kGauss, keys, gs);
  probe.run([&](sim::ProcContext& ctx) {
    local_radix_sort(ctx, keys, tmp, 8);
  });
  const double seq_mem = probe.breakdown_of(0).mem_ns();

  const auto par = run(Algo::kRadix, Model::kShmem, p, n);
  const double raw = speedup(seq, par.elapsed_ns);
  const double adjusted =
      perf::speedup_without_capacity(seq, seq_mem, par.per_proc);
  EXPECT_LT(adjusted, raw);
}

TEST(Shape, SampleSortBalancesDuplicateHeavyData) {
  // The `zero` distribution puts 10% of all keys at one value; splitter
  // tie-breaking by source rank (regular sampling) must keep the output
  // partitions balanced (a naive splitter would send every zero to one
  // process: ~6.4x imbalance at 16 procs).
  SortSpec spec;
  spec.algo = Algo::kSample;
  spec.model = Model::kCcSas;
  spec.nprocs = 16;
  spec.n = 1 << 18;
  spec.dist = keys::Dist::kZero;
  const SortResult res = try_run_sort(spec).value();
  EXPECT_LT(res.imbalance(), 1.5);
}

TEST(Shape, MoreSamplesImproveBalance) {
  auto imbalance_with = [&](int samples) {
    SortSpec spec;
    spec.algo = Algo::kSample;
    spec.model = Model::kShmem;
    spec.nprocs = 16;
    spec.n = 1 << 17;
    spec.dist = keys::Dist::kRandom;
    spec.ablations.sample_count = samples;
    return try_run_sort(spec).value().imbalance();
  };
  EXPECT_LT(imbalance_with(256), imbalance_with(8));
  EXPECT_LT(imbalance_with(256), 1.2);
}

}  // namespace
}  // namespace dsm::sort
