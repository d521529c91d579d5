// Charge-invariance for the MSD and mergesort backends (DESIGN.md §9,
// §13): swapping the kernel backend must leave every charged virtual
// time bit-identical, at the instrumented local-sort level and through
// full parallel sorts; and the kv32 record must be charge-invisible
// (§11) for both new algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "keys/distributions.hpp"
#include "sim/team.hpp"
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

struct LocalSortRun {
  std::vector<Key> sorted;
  sim::Breakdown breakdown;
  double elapsed_ns = 0;
};

LocalSortRun run_local(Algo algo, KernelBackend be, std::vector<Key> keys) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  std::vector<Key> tmp(keys.size());
  RadixWorkspace ws;
  team.run([&](sim::ProcContext& ctx) {
    if (algo == Algo::kMsdRadix) {
      local_msd_sort(ctx, keys, be, ws);
    } else {
      local_merge_sort(ctx, keys, tmp, 11, be, ws);
    }
  });
  return LocalSortRun{std::move(keys), team.breakdown_of(0),
                      team.elapsed_ns()};
}

class ChargedAlgoLocalSort
    : public ::testing::TestWithParam<std::tuple<Algo, keys::Dist>> {};

TEST_P(ChargedAlgoLocalSort, TimesAndOutputBitIdentical) {
  const Algo algo = std::get<0>(GetParam());
  const keys::Dist dist = std::get<1>(GetParam());
  for (const Index n : {Index{0}, Index{1}, Index{33}, Index{100},
                        Index{1} << 15}) {
    const auto input = make_keys(dist, n, 7);
    const auto ref = run_local(algo, KernelBackend::kReference, input);
    const auto opt = run_local(algo, KernelBackend::kOptimized, input);
    EXPECT_EQ(ref.sorted, opt.sorted)
        << keys::dist_name(dist) << " n=" << n;
    EXPECT_TRUE(std::is_sorted(ref.sorted.begin(), ref.sorted.end()));
    EXPECT_EQ(ref.elapsed_ns, opt.elapsed_ns)
        << keys::dist_name(dist) << " n=" << n;
    EXPECT_EQ(ref.breakdown.busy_ns, opt.breakdown.busy_ns);
    EXPECT_EQ(ref.breakdown.lmem_ns, opt.breakdown.lmem_ns);
    EXPECT_EQ(ref.breakdown.rmem_ns, opt.breakdown.rmem_ns);
    EXPECT_EQ(ref.breakdown.sync_ns, opt.breakdown.sync_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgoByDist, ChargedAlgoLocalSort,
    ::testing::Combine(::testing::Values(Algo::kMsdRadix, Algo::kMergesort),
                       ::testing::Values(keys::Dist::kGauss,
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

TEST(ChargedAlgoLocalSort, ChargesReflectTheInputStructure) {
  // The menu's raison d'être at the local level: MSD's all-equal early
  // exit makes dup cheaper than gauss for the same n, and mergesort's
  // nearly-sorted path makes almost-sorted cheaper than gauss.
  const Index n = Index{1} << 15;
  const auto msd_dup =
      run_local(Algo::kMsdRadix, KernelBackend::kOptimized,
                make_keys(keys::Dist::kDup, n, 5));
  const auto msd_gauss =
      run_local(Algo::kMsdRadix, KernelBackend::kOptimized,
                make_keys(keys::Dist::kGauss, n, 5));
  EXPECT_LT(msd_dup.elapsed_ns, msd_gauss.elapsed_ns);

  const auto merge_sorted =
      run_local(Algo::kMergesort, KernelBackend::kOptimized,
                make_keys(keys::Dist::kAlmostSorted, n, 5));
  const auto merge_gauss =
      run_local(Algo::kMergesort, KernelBackend::kOptimized,
                make_keys(keys::Dist::kGauss, n, 5));
  EXPECT_LT(merge_sorted.elapsed_ns, merge_gauss.elapsed_ns);
}

SortSpec full_spec(Algo algo, Model model, keys::Dist dist,
                   keys::RecordType record, KernelBackend be) {
  SortSpec spec;
  spec.algo = algo;
  spec.model = model;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  spec.radix_bits = 11;
  spec.dist = dist;
  spec.record = record;
  spec.keep_output = true;
  spec.kernel_backend = be;
  return spec;
}

class FullAlgoSortBackend
    : public ::testing::TestWithParam<
          std::tuple<Algo, Model, keys::RecordType, keys::Dist>> {};

TEST_P(FullAlgoSortBackend, ElapsedPhasesAndOutputBitIdentical) {
  const auto [algo, model, record, dist] = GetParam();
  const auto ref = try_run_sort(
      full_spec(algo, model, dist, record, KernelBackend::kReference)).value();
  const auto opt = try_run_sort(
      full_spec(algo, model, dist, record, KernelBackend::kOptimized)).value();
  EXPECT_TRUE(ref.verified);
  EXPECT_TRUE(opt.verified);
  EXPECT_EQ(ref.output, opt.output);
  EXPECT_EQ(ref.payload_output, opt.payload_output);
  EXPECT_EQ(ref.elapsed_ns, opt.elapsed_ns);
  ASSERT_EQ(ref.per_proc.size(), opt.per_proc.size());
  for (std::size_t i = 0; i < ref.per_proc.size(); ++i) {
    EXPECT_EQ(ref.per_proc[i].busy_ns, opt.per_proc[i].busy_ns) << i;
    EXPECT_EQ(ref.per_proc[i].lmem_ns, opt.per_proc[i].lmem_ns) << i;
    EXPECT_EQ(ref.per_proc[i].rmem_ns, opt.per_proc[i].rmem_ns) << i;
    EXPECT_EQ(ref.per_proc[i].sync_ns, opt.per_proc[i].sync_ns) << i;
  }
  ASSERT_EQ(ref.phases.size(), opt.phases.size());
  for (std::size_t i = 0; i < ref.phases.size(); ++i) {
    EXPECT_EQ(ref.phases[i].first, opt.phases[i].first);
    EXPECT_EQ(ref.phases[i].second.busy_ns, opt.phases[i].second.busy_ns)
        << ref.phases[i].first;
    EXPECT_EQ(ref.phases[i].second.lmem_ns, opt.phases[i].second.lmem_ns)
        << ref.phases[i].first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgoModelRecordDist, FullAlgoSortBackend,
    ::testing::Combine(
        ::testing::Values(Algo::kMsdRadix, Algo::kMergesort),
        ::testing::Values(Model::kCcSas, Model::kMpi, Model::kShmem),
        ::testing::Values(keys::RecordType::kU32,
                          keys::RecordType::kKeyPayload32),
        ::testing::Values(keys::Dist::kDup, keys::Dist::kAlmostSorted)),
    [](const auto& info) {
      std::string name =
          std::string(algo_name(std::get<0>(info.param))) + "_" +
          model_name(std::get<1>(info.param)) + "_" +
          keys::record_name(std::get<2>(info.param)) + "_" +
          keys::dist_name(std::get<3>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RecordObliviousCharging, Kv32ChargesBitIdenticalToU32ForNewAlgos) {
  // DESIGN.md §11 for the new backends: the payload lane is an uncharged
  // host-side mirror, so elapsed and per-process times must be bitwise
  // equal between u32 and kv32 runs of the same key stream.
  for (const Algo algo : {Algo::kMsdRadix, Algo::kMergesort}) {
    for (const Model model : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
      const auto u32 =
          try_run_sort(full_spec(algo, model, keys::Dist::kZipf,
                             keys::RecordType::kU32,
                             KernelBackend::kOptimized)).value();
      const auto kv32 =
          try_run_sort(full_spec(algo, model, keys::Dist::kZipf,
                             keys::RecordType::kKeyPayload32,
                             KernelBackend::kOptimized)).value();
      EXPECT_EQ(u32.elapsed_ns, kv32.elapsed_ns)
          << algo_name(algo) << "/" << model_name(model);
      EXPECT_EQ(u32.output, kv32.output)
          << algo_name(algo) << "/" << model_name(model);
      ASSERT_EQ(u32.per_proc.size(), kv32.per_proc.size());
      for (std::size_t i = 0; i < u32.per_proc.size(); ++i) {
        EXPECT_EQ(u32.per_proc[i].busy_ns, kv32.per_proc[i].busy_ns) << i;
        EXPECT_EQ(u32.per_proc[i].lmem_ns, kv32.per_proc[i].lmem_ns) << i;
        EXPECT_EQ(u32.per_proc[i].rmem_ns, kv32.per_proc[i].rmem_ns) << i;
        EXPECT_EQ(u32.per_proc[i].sync_ns, kv32.per_proc[i].sync_ns) << i;
      }
      EXPECT_EQ(kv32.payload_output.size(), kv32.output.size());
      EXPECT_TRUE(kv32.verified);  // includes the stability check
    }
  }
}

}  // namespace
}  // namespace dsm::sort
