// The charge-invariance contract (DESIGN.md §9) end to end: swapping the
// kernel backend must leave every charged virtual time bit-identical —
// breakdowns of the instrumented local sort, and the elapsed times,
// per-phase attributions, and outputs of every full parallel sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "keys/distributions.hpp"
#include "keys/record.hpp"
#include "sim/team.hpp"
#include "sort/merge_sort.hpp"
#include "sort/msd_radix.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

std::vector<Key> make_keys(keys::Dist d, Index n, std::uint64_t seed,
                           int radix = 8) {
  std::vector<Key> out(n);
  keys::GenSpec spec;
  spec.n_total = n;
  spec.nprocs = 1;
  spec.radix_bits = radix;
  spec.seed = seed;
  keys::generate(d, out, spec);
  return out;
}

struct LocalSortRun {
  std::vector<Key> sorted;
  sim::Breakdown breakdown;
  double elapsed_ns = 0;
};

LocalSortRun run_local_sort(KernelBackend be, std::vector<Key> keys,
                            int radix_bits) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  std::vector<Key> tmp(keys.size());
  RadixWorkspace ws;
  team.run([&](sim::ProcContext& ctx) {
    local_radix_sort(ctx, keys, tmp, radix_bits, be, ws);
  });
  return LocalSortRun{std::move(keys), team.breakdown_of(0),
                      team.elapsed_ns()};
}

class ChargedLocalSort
    : public ::testing::TestWithParam<std::tuple<keys::Dist, int>> {};

TEST_P(ChargedLocalSort, TimesAndOutputBitIdentical) {
  const keys::Dist dist = std::get<0>(GetParam());
  const int radix = std::get<1>(GetParam());
  for (const Index n : {Index{0}, Index{1}, Index{100}, Index{1} << 15}) {
    const auto input = make_keys(dist, n, 7, radix);
    const auto ref = run_local_sort(KernelBackend::kReference, input, radix);
    const auto opt = run_local_sort(KernelBackend::kOptimized, input, radix);
    EXPECT_EQ(ref.sorted, opt.sorted)
        << keys::dist_name(dist) << " radix=" << radix << " n=" << n;
    EXPECT_TRUE(std::is_sorted(ref.sorted.begin(), ref.sorted.end()));
    EXPECT_EQ(ref.elapsed_ns, opt.elapsed_ns)
        << keys::dist_name(dist) << " radix=" << radix << " n=" << n;
    EXPECT_EQ(ref.breakdown.busy_ns, opt.breakdown.busy_ns);
    EXPECT_EQ(ref.breakdown.lmem_ns, opt.breakdown.lmem_ns);
    EXPECT_EQ(ref.breakdown.rmem_ns, opt.breakdown.rmem_ns);
    EXPECT_EQ(ref.breakdown.sync_ns, opt.breakdown.sync_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistByRadix, ChargedLocalSort,
    ::testing::Combine(::testing::Values(keys::Dist::kRandom,
                                         keys::Dist::kGauss,
                                         keys::Dist::kZero,
                                         keys::Dist::kLocal),
                       ::testing::Values(4, 8, 11, 16)),
    [](const auto& info) {
      return std::string(keys::dist_name(std::get<0>(info.param))) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ChargedLocalSort, DeadPassesChargeLikeReference) {
  // Keys bounded by one radix-8 digit: passes 1..3 are identity
  // permutations the optimized backend skips, yet it must charge exactly
  // what the reference measures for them.
  std::vector<Key> input(20000);
  std::uint64_t x = 99;
  for (auto& k : input) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    k = static_cast<Key>((x >> 40) & 0xffu);
  }
  const auto ref = run_local_sort(KernelBackend::kReference, input, 8);
  const auto opt = run_local_sort(KernelBackend::kOptimized, input, 8);
  EXPECT_EQ(ref.sorted, opt.sorted);
  EXPECT_EQ(ref.elapsed_ns, opt.elapsed_ns);
  EXPECT_EQ(ref.breakdown.busy_ns, opt.breakdown.busy_ns);
  EXPECT_EQ(ref.breakdown.lmem_ns, opt.breakdown.lmem_ns);
}

TEST(SeqRadixBackend, EntryPointOutputsByteIdentical) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const int radix : {4, 8, 11, 16}) {
      for (const Index n : {Index{0}, Index{50}, Index{30000}}) {
        const auto input = make_keys(keys::Dist::kGauss, n, seed, radix);
        auto ref = input;
        auto opt = input;
        std::vector<Key> tmp(n);
        RadixWorkspace ws_ref, ws_opt;
        seq_radix_sort(ref, tmp, radix, KernelBackend::kReference, ws_ref);
        seq_radix_sort(opt, tmp, radix, KernelBackend::kOptimized, ws_opt);
        EXPECT_EQ(ref, opt) << "seed=" << seed << " radix=" << radix
                            << " n=" << n;
      }
    }
  }
}

enum class LocalAlgo { kLsd, kMsd, kMerge };

const char* local_algo_name(LocalAlgo a) {
  switch (a) {
    case LocalAlgo::kLsd:
      return "lsd";
    case LocalAlgo::kMsd:
      return "msd";
    case LocalAlgo::kMerge:
      return "merge";
  }
  return "?";
}

/// One charged local sort on a one-process team. With `pays` the payload
/// lane rides along (kv32); without it the same call sorts keys alone.
LocalSortRun run_payload_local(LocalAlgo algo, KernelBackend be,
                               int radix_bits, int jobs, std::vector<Key> keys,
                               std::vector<keys::Payload>* pays) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  std::vector<Key> tmp(keys.size());
  std::vector<keys::Payload> pay_tmp(pays != nullptr ? keys.size() : 0);
  RadixWorkspace ws;
  ws.jobs = jobs;
  const PayloadLanes lanes =
      pays != nullptr ? PayloadLanes{*pays, pay_tmp} : PayloadLanes{};
  team.run([&](sim::ProcContext& ctx) {
    switch (algo) {
      case LocalAlgo::kLsd:
        local_radix_sort(ctx, keys, tmp, radix_bits, be, ws, lanes);
        break;
      case LocalAlgo::kMsd:
        local_msd_sort(ctx, keys, be, ws, lanes);
        break;
      case LocalAlgo::kMerge:
        local_merge_sort(ctx, keys, tmp, radix_bits, be, ws, lanes);
        break;
    }
  });
  return LocalSortRun{std::move(keys), team.breakdown_of(0),
                      team.elapsed_ns()};
}

TEST(PayloadLaneLocalSort, KeysAndChargesMatchKeyOnlyAndPayloadIsStable) {
  // The kv32 payload lane is an argument of every local sort: passing it
  // must leave the key lane and every clock category bit-identical to the
  // key-only call, and the lane must come out exactly as the generic
  // stable pair sort arranges it (LSD by its per-pass mirror, MSD and
  // merge by the stable pair mirror). Lower the shard floor so the
  // jobs=2 optimized LSD cells really shard their kernels.
  const std::size_t saved = kernel_shard_min_keys();
  set_kernel_shard_min_keys(1024);
  struct Restore {
    std::size_t v;
    ~Restore() { set_kernel_shard_min_keys(v); }
  } restore{saved};

  using PairTraits = keys::RecordTraits<keys::KeyPayload32>;
  for (const LocalAlgo algo :
       {LocalAlgo::kLsd, LocalAlgo::kMsd, LocalAlgo::kMerge}) {
    for (const KernelBackend be :
         {KernelBackend::kReference, KernelBackend::kOptimized}) {
      const int jobs =
          algo == LocalAlgo::kLsd && be == KernelBackend::kOptimized ? 2 : 1;
      for (const int radix : {4, 8, 11, 16}) {
        const Index buckets = Index{1} << radix;
        for (const Index n :
             {Index{0}, Index{1}, buckets - 1, Index{65536}}) {
          for (const keys::Dist dist : {keys::Dist::kGauss, keys::Dist::kDup}) {
            const std::string cell =
                std::string(local_algo_name(algo)) + " " +
                kernel_backend_name(be) + " r" + std::to_string(radix) +
                " n=" + std::to_string(n) + " " + keys::dist_name(dist);
            const auto input = make_keys(dist, n, 11, radix);
            std::vector<keys::Payload> pays(n);
            std::vector<keys::KeyPayload32> recs(n);
            for (Index i = 0; i < n; ++i) {
              pays[i] = static_cast<keys::Payload>(i);
              recs[i] = {input[i], pays[i]};
            }
            std::vector<keys::KeyPayload32> rtmp(n);
            keys::record_lsd_sort<PairTraits>(recs, rtmp, radix);

            const auto plain =
                run_payload_local(algo, be, radix, jobs, input, nullptr);
            const auto paired =
                run_payload_local(algo, be, radix, jobs, input, &pays);
            ASSERT_EQ(plain.sorted, paired.sorted) << cell;
            EXPECT_TRUE(std::is_sorted(plain.sorted.begin(),
                                       plain.sorted.end()))
                << cell;
            EXPECT_EQ(plain.elapsed_ns, paired.elapsed_ns) << cell;
            EXPECT_EQ(plain.breakdown.busy_ns, paired.breakdown.busy_ns)
                << cell;
            EXPECT_EQ(plain.breakdown.lmem_ns, paired.breakdown.lmem_ns)
                << cell;
            EXPECT_EQ(plain.breakdown.rmem_ns, paired.breakdown.rmem_ns)
                << cell;
            EXPECT_EQ(plain.breakdown.sync_ns, paired.breakdown.sync_ns)
                << cell;
            for (Index i = 0; i < n; ++i) {
              ASSERT_EQ(pays[i], recs[i].payload) << cell << " at " << i;
              ASSERT_EQ(paired.sorted[i], recs[i].key) << cell << " at " << i;
            }
          }
        }
      }
    }
  }
}

SortResult run_with_backend(Algo algo, Model model, KernelBackend be,
                            int radix_bits) {
  SortSpec spec;
  spec.algo = algo;
  spec.model = model;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  spec.radix_bits = radix_bits;
  spec.dist = keys::Dist::kGauss;
  spec.keep_output = true;
  spec.kernel_backend = be;
  return try_run_sort(spec).value();
}

class FullSortBackend
    : public ::testing::TestWithParam<std::tuple<Algo, Model>> {};

TEST_P(FullSortBackend, ElapsedPhasesAndOutputBitIdentical) {
  const Algo algo = std::get<0>(GetParam());
  const Model model = std::get<1>(GetParam());
  const int radix = algo == Algo::kSample ? 11 : 8;
  const auto ref =
      run_with_backend(algo, model, KernelBackend::kReference, radix);
  const auto opt =
      run_with_backend(algo, model, KernelBackend::kOptimized, radix);
  EXPECT_TRUE(ref.verified);
  EXPECT_TRUE(opt.verified);
  EXPECT_EQ(ref.output, opt.output);
  EXPECT_EQ(ref.elapsed_ns, opt.elapsed_ns);
  EXPECT_EQ(ref.passes, opt.passes);
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
    AlgoByModel, FullSortBackend,
    ::testing::Values(std::make_tuple(Algo::kRadix, Model::kCcSas),
                      std::make_tuple(Algo::kRadix, Model::kCcSasNew),
                      std::make_tuple(Algo::kRadix, Model::kMpi),
                      std::make_tuple(Algo::kRadix, Model::kShmem),
                      std::make_tuple(Algo::kSample, Model::kCcSas),
                      std::make_tuple(Algo::kSample, Model::kMpi),
                      std::make_tuple(Algo::kSample, Model::kShmem)),
    [](const auto& info) {
      std::string name = std::string(algo_name(std::get<0>(info.param))) +
                         "_" + model_name(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(WorkerExchangeWc, CcSasScatterChargesAndOutputBitIdentical) {
  // Force the worker-exchange write-combining on at test sizes: with the
  // WC bucket floor lowered to 64, the non-buffered CC-SAS scatter stages
  // its remote stores (radix 8: 256 buckets, 16K keys per rank >= 4096).
  // Charges and bytes must match the reference exactly anyway.
  const std::size_t saved = kernel_wc_min_buckets();
  set_kernel_wc_min_buckets(64);
  struct Restore {
    std::size_t v;
    ~Restore() { set_kernel_wc_min_buckets(v); }
  } restore{saved};

  for (const Model model : {Model::kCcSas, Model::kCcSasNew}) {
    SortSpec spec;
    spec.algo = Algo::kRadix;
    spec.model = model;
    spec.nprocs = 4;
    spec.n = 1 << 16;
    spec.radix_bits = 8;
    spec.dist = keys::Dist::kGauss;
    spec.keep_output = true;
    spec.kernel_backend = KernelBackend::kReference;
    const auto ref = try_run_sort(spec).value();
    spec.kernel_backend = KernelBackend::kOptimized;
    const auto opt = try_run_sort(spec).value();
    EXPECT_EQ(ref.output, opt.output) << model_name(model);
    EXPECT_EQ(ref.elapsed_ns, opt.elapsed_ns) << model_name(model);
    ASSERT_EQ(ref.per_proc.size(), opt.per_proc.size());
    for (std::size_t i = 0; i < ref.per_proc.size(); ++i) {
      EXPECT_EQ(ref.per_proc[i].busy_ns, opt.per_proc[i].busy_ns) << i;
      EXPECT_EQ(ref.per_proc[i].lmem_ns, opt.per_proc[i].lmem_ns) << i;
      EXPECT_EQ(ref.per_proc[i].rmem_ns, opt.per_proc[i].rmem_ns) << i;
      EXPECT_EQ(ref.per_proc[i].sync_ns, opt.per_proc[i].sync_ns) << i;
    }
  }
}

SortResult run_with_jobs(Algo algo, Model model, int kernel_jobs) {
  SortSpec spec;
  spec.algo = algo;
  spec.model = model;
  spec.nprocs = 4;
  spec.n = 1 << 15;
  spec.radix_bits = algo == Algo::kSample ? 11 : 8;
  spec.dist = keys::Dist::kGauss;
  spec.keep_output = true;
  spec.kernel_jobs = kernel_jobs;
  return try_run_sort(spec).value();
}

TEST(ThreadedKernelJobs, ChargesAndOutputInvariantAcrossJobCounts) {
  // spec.kernel_jobs threads the histogram/permute inside one charged
  // sort. Lower the shard floor so 2 and 4 jobs really shard at 8K keys
  // per rank; elapsed, breakdowns, and output must not move by a bit.
  const std::size_t saved = kernel_shard_min_keys();
  set_kernel_shard_min_keys(1024);
  struct Restore {
    std::size_t v;
    ~Restore() { set_kernel_shard_min_keys(v); }
  } restore{saved};

  for (const auto& [algo, model] :
       {std::make_pair(Algo::kRadix, Model::kCcSas),
        std::make_pair(Algo::kRadix, Model::kMpi),
        std::make_pair(Algo::kRadix, Model::kShmem),
        std::make_pair(Algo::kSample, Model::kMpi)}) {
    const auto serial = run_with_jobs(algo, model, 1);
    for (const int jobs : {2, 4}) {
      const auto threaded = run_with_jobs(algo, model, jobs);
      EXPECT_EQ(serial.output, threaded.output)
          << algo_name(algo) << "/" << model_name(model) << " jobs=" << jobs;
      EXPECT_EQ(serial.elapsed_ns, threaded.elapsed_ns)
          << algo_name(algo) << "/" << model_name(model) << " jobs=" << jobs;
      ASSERT_EQ(serial.per_proc.size(), threaded.per_proc.size());
      for (std::size_t i = 0; i < serial.per_proc.size(); ++i) {
        EXPECT_EQ(serial.per_proc[i].busy_ns, threaded.per_proc[i].busy_ns);
        EXPECT_EQ(serial.per_proc[i].lmem_ns, threaded.per_proc[i].lmem_ns);
        EXPECT_EQ(serial.per_proc[i].rmem_ns, threaded.per_proc[i].rmem_ns);
        EXPECT_EQ(serial.per_proc[i].sync_ns, threaded.per_proc[i].sync_ns);
      }
    }
  }
}

TEST(ThreadedKernelJobs, SpecValidationRejectsNegative) {
  // kernel_jobs is a thread count, so it must be at least 1.
  for (const int jobs : {-1, 0}) {
    SortSpec spec;
    spec.kernel_jobs = jobs;
    const Status s = spec.validate_status();
    EXPECT_FALSE(s.ok()) << jobs;
    EXPECT_NE(s.message().find("kernel jobs"), std::string::npos);
  }
}

}  // namespace
}  // namespace dsm::sort
