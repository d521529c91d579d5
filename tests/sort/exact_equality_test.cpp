// Exact-output tests: beyond the checksum/sortedness verification built
// into try_run_sort, these regenerate the input independently and require the
// parallel output to equal std::sort's result element for element.
#include <gtest/gtest.h>

#include <algorithm>

#include "sas/shared_array.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

std::vector<Key> reference_sorted(const SortSpec& spec) {
  // Regenerate the global key sequence exactly as try_run_sort's driver does
  // (per-partition generation), then sort it with the standard library.
  std::vector<Key> all(spec.n);
  const sas::HomeMap homes(spec.n, spec.nprocs);
  for (int r = 0; r < spec.nprocs; ++r) {
    keys::GenSpec gs;
    gs.n_total = spec.n;
    gs.global_begin = homes.begin_of(r);
    gs.rank = r;
    gs.nprocs = spec.nprocs;
    gs.radix_bits = spec.radix_bits;
    gs.seed = spec.seed;
    keys::generate(spec.dist,
                   std::span<Key>(all.data() + homes.begin_of(r),
                                  homes.count_of(r)),
                   gs);
  }
  std::sort(all.begin(), all.end());
  return all;
}

struct Case {
  Algo algo;
  Model model;
  int nprocs;
  keys::Dist dist;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = std::string(algo_name(info.param.algo)) + "_";
  name += model_name(info.param.model);
  name += "_p" + std::to_string(info.param.nprocs);
  name += "_";
  name += keys::dist_name(info.param.dist);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class ExactEquality : public ::testing::TestWithParam<Case> {};

TEST_P(ExactEquality, OutputEqualsStdSort) {
  const Case& c = GetParam();
  SortSpec spec;
  spec.algo = c.algo;
  spec.model = c.model;
  spec.nprocs = c.nprocs;
  spec.n = 20011;  // prime: every partition has a remainder to handle
  spec.radix_bits = 8;
  spec.dist = c.dist;
  spec.seed = 424242;
  spec.keep_output = true;
  const SortResult res = try_run_sort(spec).value();
  ASSERT_EQ(res.output.size(), spec.n);
  EXPECT_EQ(res.output, reference_sorted(spec));
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                        Model::kShmem}) {
    out.push_back({Algo::kRadix, m, 5, keys::Dist::kGauss});
    out.push_back({Algo::kRadix, m, 8, keys::Dist::kZero});
  }
  for (const Model m : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
    out.push_back({Algo::kSample, m, 5, keys::Dist::kGauss});
    out.push_back({Algo::kSample, m, 8, keys::Dist::kStagger});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ExactEquality, ::testing::ValuesIn(cases()),
                         case_name);

TEST(ExactEquality, AblationVariantsMatchStdSort) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.nprocs = 6;
  spec.n = 20011;
  spec.seed = 7;
  spec.keep_output = true;

  spec.ablations.mpi_impl = msg::Impl::kStaged;
  EXPECT_EQ(try_run_sort(spec).value().output, reference_sorted(spec));

  spec.ablations.mpi_impl = msg::Impl::kDirect;
  spec.ablations.mpi_chunk_messages = false;
  EXPECT_EQ(try_run_sort(spec).value().output, reference_sorted(spec));

  SortSpec shspec;
  shspec.algo = Algo::kRadix;
  shspec.model = Model::kShmem;
  shspec.ablations.shmem_use_put = true;
  shspec.nprocs = 6;
  shspec.n = 20011;
  shspec.seed = 7;
  shspec.keep_output = true;
  EXPECT_EQ(try_run_sort(shspec).value().output, reference_sorted(shspec));
}

TEST(ExactEquality, KeepOutputOffLeavesOutputEmpty) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kShmem;
  spec.nprocs = 4;
  spec.n = 1 << 12;
  EXPECT_TRUE(try_run_sort(spec).value().output.empty());
}

}  // namespace
}  // namespace dsm::sort
