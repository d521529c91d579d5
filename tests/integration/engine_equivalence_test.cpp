// Golden engine equivalence: the cooperative fiber engine must produce
// bit-identical virtual times to the seed thread-per-rank engine — same
// elapsed time, same per-processor breakdowns — for every algorithm,
// programming model and team size. This is the contract that makes the
// engine swap invisible to every reproduced table and figure.
#include <gtest/gtest.h>

#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

// Exact equality on purpose (not EXPECT_DOUBLE_EQ): the two engines run
// the same completions in the same round order on the same deposits, so
// every double must match to the last bit.
void expect_bit_identical(const SortResult& a, const SortResult& b) {
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.passes, b.passes);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t r = 0; r < a.per_proc.size(); ++r) {
    EXPECT_EQ(a.per_proc[r].busy_ns, b.per_proc[r].busy_ns) << r;
    EXPECT_EQ(a.per_proc[r].lmem_ns, b.per_proc[r].lmem_ns) << r;
    EXPECT_EQ(a.per_proc[r].rmem_ns, b.per_proc[r].rmem_ns) << r;
    EXPECT_EQ(a.per_proc[r].sync_ns, b.per_proc[r].sync_ns) << r;
  }
  EXPECT_EQ(a.run_sizes, b.run_sizes);
}

SortResult run_with(SortSpec spec, SpmdEngine engine) {
  spec.engine = engine;
  return try_run_sort(spec).value();
}

TEST(EngineEquivalence, RadixAllModelsAllTeamSizes) {
  for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                        Model::kShmem}) {
    for (const int p : {4, 16, 64}) {
      SortSpec spec;
      spec.algo = Algo::kRadix;
      spec.model = m;
      spec.nprocs = p;
      spec.n = 1 << 14;
      spec.seed = 11;
      expect_bit_identical(run_with(spec, SpmdEngine::kThreads),
                           run_with(spec, SpmdEngine::kCooperative));
    }
  }
}

TEST(EngineEquivalence, SampleAllModelsAllTeamSizes) {
  for (const Model m : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
    for (const int p : {4, 16, 64}) {
      SortSpec spec;
      spec.algo = Algo::kSample;
      spec.model = m;
      spec.nprocs = p;
      spec.n = 1 << 14;
      spec.seed = 11;
      expect_bit_identical(run_with(spec, SpmdEngine::kThreads),
                           run_with(spec, SpmdEngine::kCooperative));
    }
  }
}

TEST(EngineEquivalence, SkewedDistributionsAndStagedTransport) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.ablations.mpi_impl = msg::Impl::kStaged;
  spec.nprocs = 16;
  spec.n = 1 << 14;
  spec.dist = keys::Dist::kStagger;
  expect_bit_identical(run_with(spec, SpmdEngine::kThreads),
                       run_with(spec, SpmdEngine::kCooperative));

  spec.model = Model::kShmem;
  spec.dist = keys::Dist::kBucket;
  expect_bit_identical(run_with(spec, SpmdEngine::kThreads),
                       run_with(spec, SpmdEngine::kCooperative));
}

}  // namespace
}  // namespace dsm::sort
