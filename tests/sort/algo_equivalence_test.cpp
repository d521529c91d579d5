// Semantic equivalence of the MSD and mergesort backends (DESIGN.md
// §13): the charged entry points against std::sort, reference vs
// optimized byte-for-byte, every {algo x model} full sort against the
// sample-sort skeleton it rides on, and the n-edge cells (empty, single
// key, fewer keys than buckets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "keys/distributions.hpp"
#include "sort/merge_sort.hpp"
#include "sort/msd_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

std::vector<Key> make_keys(keys::Dist d, Index n, std::uint64_t seed) {
  std::vector<Key> out(n);
  keys::GenSpec spec;
  spec.n_total = n;
  spec.nprocs = 1;
  spec.seed = seed;
  keys::generate(d, out, spec);
  return out;
}

void seq_sort(Algo algo, KernelBackend be, std::vector<Key>& keys) {
  std::vector<Key> tmp(keys.size());
  RadixWorkspace ws;
  if (algo == Algo::kMsdRadix) {
    seq_msd_sort(keys, be, ws);
  } else {
    seq_merge_sort(keys, tmp, 11, be, ws);
  }
}

class SeqAlgoBackend
    : public ::testing::TestWithParam<std::tuple<Algo, keys::Dist>> {};

TEST_P(SeqAlgoBackend, BackendsMatchEachOtherAndStdSort) {
  const auto [algo, dist] = GetParam();
  // Sizes straddle every base-case and recursion boundary: empty, one
  // key, the insertion cutoff (32), fewer keys than the 256 MSD buckets
  // (and the 2048 LSD buckets at radix 11), one merge run block, and a
  // multi-run non-power-of-two size.
  for (const Index n :
       {Index{0}, Index{1}, Index{2}, Index{31}, Index{32}, Index{33},
        Index{200}, Index{4096}, Index{16384}, Index{50001}}) {
    const auto input = make_keys(dist, n, 13);
    auto expect = input;
    std::sort(expect.begin(), expect.end());
    auto ref = input;
    auto opt = input;
    seq_sort(algo, KernelBackend::kReference, ref);
    seq_sort(algo, KernelBackend::kOptimized, opt);
    EXPECT_EQ(ref, expect) << keys::dist_name(dist) << " n=" << n;
    EXPECT_EQ(opt, expect) << keys::dist_name(dist) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgoByDist, SeqAlgoBackend,
    ::testing::Combine(::testing::Values(Algo::kMsdRadix, Algo::kMergesort),
                       ::testing::Values(keys::Dist::kGauss,
                                         keys::Dist::kRandom,
                                         keys::Dist::kZipf,
                                         keys::Dist::kDup,
                                         keys::Dist::kAlmostSorted,
                                         keys::Dist::kAdversarial)),
    [](const auto& info) {
      std::string name =
          std::string(algo_name(std::get<0>(info.param))) + "_" +
          keys::dist_name(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

SortResult run_full(Algo algo, Model model, keys::Dist dist, Index n,
                    int nprocs) {
  SortSpec spec;
  spec.algo = algo;
  spec.model = model;
  spec.nprocs = nprocs;
  spec.n = n;
  spec.radix_bits = 11;
  spec.dist = dist;
  spec.keep_output = true;
  return try_run_sort(spec).value();
}

class FullAlgoSort
    : public ::testing::TestWithParam<std::tuple<Algo, Model, keys::Dist>> {};

TEST_P(FullAlgoSort, MatchesTheSampleSkeletonOutputExactly) {
  // Same skeleton, same splitters, same redistribution: only the local
  // sorts differ, and a sorted run is a sorted run — every algorithm on
  // the skeleton must produce the identical global sequence, run sizes
  // included.
  const auto [algo, model, dist] = GetParam();
  const auto sample = run_full(Algo::kSample, model, dist, 1 << 14, 4);
  const auto mine = run_full(algo, model, dist, 1 << 14, 4);
  EXPECT_TRUE(mine.verified);
  EXPECT_EQ(mine.output, sample.output);
  EXPECT_EQ(mine.run_sizes, sample.run_sizes);
  EXPECT_EQ(mine.run_hash, sample.run_hash);
  EXPECT_EQ(mine.input_checksum, sample.input_checksum);
}

INSTANTIATE_TEST_SUITE_P(
    AlgoModelDist, FullAlgoSort,
    ::testing::Combine(
        ::testing::Values(Algo::kMsdRadix, Algo::kMergesort),
        ::testing::Values(Model::kCcSas, Model::kMpi, Model::kShmem),
        ::testing::Values(keys::Dist::kGauss, keys::Dist::kZipf,
                          keys::Dist::kDup, keys::Dist::kAlmostSorted,
                          keys::Dist::kAdversarial)),
    [](const auto& info) {
      std::string name =
          std::string(algo_name(std::get<0>(info.param))) + "_" +
          model_name(std::get<1>(info.param)) + "_" +
          keys::dist_name(std::get<2>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(FullAlgoSortEdges, TinyInputsAcrossModels) {
  // n = nprocs (one key per rank, far fewer keys than buckets) and a
  // small odd n: the recursion base cases and empty-bucket paths at the
  // parallel level.
  for (const Algo algo : {Algo::kMsdRadix, Algo::kMergesort}) {
    for (const Model model : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
      for (const Index n : {Index{4}, Index{97}}) {
        const auto res = run_full(algo, model, keys::Dist::kRandom, n, 4);
        EXPECT_TRUE(res.verified)
            << algo_name(algo) << "/" << model_name(model) << " n=" << n;
        EXPECT_EQ(res.n, n);
      }
    }
  }
}

TEST(FullAlgoSortEdges, CcSasNewStaysRadixOnly) {
  for (const Algo algo : {Algo::kSample, Algo::kMsdRadix, Algo::kMergesort}) {
    SortSpec spec;
    spec.algo = algo;
    spec.model = Model::kCcSasNew;
    const Status s = spec.validate_status();
    EXPECT_FALSE(s.ok()) << algo_name(algo);
    EXPECT_NE(s.message().find("CC-SAS-NEW"), std::string::npos);
    EXPECT_FALSE(algo_supports_model(algo, Model::kCcSasNew));
  }
  EXPECT_TRUE(algo_supports_model(Algo::kRadix, Model::kCcSasNew));
}

TEST(AlgoRegistry, NamesRoundTripAndRadixKnobApplies) {
  for (const auto& e : kAlgoNames) {
    EXPECT_EQ(try_algo_from_name(e.name).value(), e.value);
    EXPECT_STREQ(algo_name(e.value), e.name);
  }
  EXPECT_FALSE(try_algo_from_name("quicksort").ok());
  EXPECT_TRUE(algo_uses_radix_bits(Algo::kRadix));
  EXPECT_TRUE(algo_uses_radix_bits(Algo::kSample));
  EXPECT_TRUE(algo_uses_radix_bits(Algo::kMergesort));
  EXPECT_FALSE(algo_uses_radix_bits(Algo::kMsdRadix));
}

}  // namespace
}  // namespace dsm::sort
