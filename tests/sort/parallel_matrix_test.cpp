// The correctness matrix: every {algorithm x model x distribution x radix
// size x process count} combination must produce a sorted permutation of
// its input. try_run_sort itself verifies (checksum + global sortedness)
// and .value() throws on failure, so each case only needs to complete.
#include <gtest/gtest.h>

#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

struct Case {
  Algo algo;
  Model model;
  int nprocs;
  int radix_bits;
  keys::Dist dist;
  Index n;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = std::string(algo_name(c.algo)) + "_";
  name += model_name(c.model);
  name += "_p" + std::to_string(c.nprocs);
  name += "_r" + std::to_string(c.radix_bits);
  name += "_";
  name += keys::dist_name(c.dist);
  name += "_n" + std::to_string(c.n);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class SortMatrix : public ::testing::TestWithParam<Case> {};

TEST_P(SortMatrix, SortsCorrectly) {
  const Case& c = GetParam();
  SortSpec spec;
  spec.algo = c.algo;
  spec.model = c.model;
  spec.nprocs = c.nprocs;
  spec.n = c.n;
  spec.radix_bits = c.radix_bits;
  spec.dist = c.dist;
  spec.seed = 12345;
  const SortResult res = try_run_sort(spec).value();
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.per_proc.size(), static_cast<std::size_t>(c.nprocs));
}

std::vector<Case> model_proc_cases() {
  std::vector<Case> cases;
  const Index n = 1 << 14;
  for (const int p : {1, 2, 4, 8}) {
    for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                          Model::kShmem}) {
      cases.push_back({Algo::kRadix, m, p, 8, keys::Dist::kGauss, n});
    }
    for (const Model m : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
      cases.push_back({Algo::kSample, m, p, 8, keys::Dist::kGauss, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ModelsAndProcs, SortMatrix,
                         ::testing::ValuesIn(model_proc_cases()), case_name);

std::vector<Case> distribution_cases() {
  std::vector<Case> cases;
  const Index n = 1 << 14;
  for (const keys::Dist d : keys::kAllDists) {
    cases.push_back({Algo::kRadix, Model::kShmem, 4, 8, d, n});
    cases.push_back({Algo::kRadix, Model::kCcSas, 4, 8, d, n});
    cases.push_back({Algo::kSample, Model::kCcSas, 4, 8, d, n});
    cases.push_back({Algo::kSample, Model::kMpi, 4, 8, d, n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Distributions, SortMatrix,
                         ::testing::ValuesIn(distribution_cases()), case_name);

std::vector<Case> radix_size_cases() {
  std::vector<Case> cases;
  const Index n = 1 << 13;
  for (const int r : {6, 7, 8, 9, 10, 11, 12}) {
    cases.push_back({Algo::kRadix, Model::kShmem, 4, r, keys::Dist::kGauss, n});
    cases.push_back({Algo::kRadix, Model::kCcSasNew, 4, r, keys::Dist::kGauss, n});
    cases.push_back({Algo::kSample, Model::kCcSas, 4, r, keys::Dist::kGauss, n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RadixSizes, SortMatrix,
                         ::testing::ValuesIn(radix_size_cases()), case_name);

std::vector<Case> awkward_shape_cases() {
  std::vector<Case> cases;
  // Non-power-of-two process counts and partitions with remainders.
  for (const int p : {3, 5, 7}) {
    cases.push_back({Algo::kRadix, Model::kCcSas, p, 8, keys::Dist::kRandom,
                     10007});
    cases.push_back({Algo::kRadix, Model::kMpi, p, 8, keys::Dist::kRandom,
                     10007});
    cases.push_back({Algo::kRadix, Model::kShmem, p, 8, keys::Dist::kRandom,
                     10007});
    cases.push_back({Algo::kSample, Model::kMpi, p, 8, keys::Dist::kRandom,
                     10007});
    cases.push_back({Algo::kSample, Model::kShmem, p, 8, keys::Dist::kRandom,
                     10007});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AwkwardShapes, SortMatrix,
                         ::testing::ValuesIn(awkward_shape_cases()),
                         case_name);

std::vector<Case> skew_cases() {
  // Heavy duplication (zero) and fully-local (local) data stress the
  // chunking/splitting logic: empty buckets, giant buckets, empty pieces.
  std::vector<Case> cases;
  for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                        Model::kShmem}) {
    cases.push_back({Algo::kRadix, m, 8, 4, keys::Dist::kZero, 1 << 13});
    cases.push_back({Algo::kRadix, m, 8, 8, keys::Dist::kLocal, 1 << 13});
    cases.push_back({Algo::kRadix, m, 8, 8, keys::Dist::kRemote, 1 << 13});
  }
  for (const Model m : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
    cases.push_back({Algo::kSample, m, 8, 8, keys::Dist::kZero, 1 << 13});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SkewedData, SortMatrix,
                         ::testing::ValuesIn(skew_cases()), case_name);

TEST(SortAblations, StagedMpiSortsCorrectly) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.ablations.mpi_impl = msg::Impl::kStaged;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
  spec.algo = Algo::kSample;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

TEST(SortAblations, CoalescedMessagesSortCorrectly) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.ablations.mpi_chunk_messages = false;  // NAS-IS style
  spec.nprocs = 6;
  spec.n = 1 << 14;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

TEST(SortAblations, ShmemPutSortsCorrectly) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kShmem;
  spec.ablations.shmem_use_put = true;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

TEST(SortAblations, SplitterGroupSizes) {
  for (const int g : {1, 2, 4, 8, 64}) {
    SortSpec spec;
    spec.algo = Algo::kSample;
    spec.model = Model::kCcSas;
    spec.ablations.sample_group_size = g;
    spec.nprocs = 8;
    spec.n = 1 << 13;
    EXPECT_TRUE(try_run_sort(spec).value().verified) << "group size " << g;
  }
}

TEST(SortAblations, SmallSampleCount) {
  SortSpec spec;
  spec.algo = Algo::kSample;
  spec.model = Model::kShmem;
  spec.ablations.sample_count = 4;
  spec.nprocs = 8;
  spec.n = 1 << 13;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

TEST(SortEdges, MinimumKeysPerProcess) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.nprocs = 4;
  spec.n = 4;  // one key each
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

TEST(SortEdges, SampleSortFewKeysManySamples) {
  SortSpec spec;
  spec.algo = Algo::kSample;
  spec.model = Model::kMpi;
  spec.nprocs = 4;
  spec.n = 64;  // 16 keys/proc < 128 samples: sampling repeats
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

TEST(SortEdges, SixteenProcs) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kShmem;
  spec.nprocs = 16;
  spec.n = 1 << 14;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
  spec.algo = Algo::kSample;
  spec.model = Model::kCcSas;
  EXPECT_TRUE(try_run_sort(spec).value().verified);
}

}  // namespace
}  // namespace dsm::sort
