#include "sort/seq_radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "keys/distributions.hpp"
#include "sim/team.hpp"
#include "sort/verify.hpp"

namespace dsm::sort {
namespace {

std::vector<Key> make_keys(keys::Dist d, Index n, int radix = 8) {
  std::vector<Key> out(n);
  keys::GenSpec spec;
  spec.n_total = n;
  spec.nprocs = 1;
  spec.radix_bits = radix;
  keys::generate(d, out, spec);
  return out;
}

TEST(RadixPasses, MatchesPaperPassCounts) {
  // §4.2.3: radix 7 -> 5 passes, 8 -> 4, 11 -> 3, 12 -> 3, 6 -> 6.
  EXPECT_EQ(radix_passes(6), 6);
  EXPECT_EQ(radix_passes(7), 5);
  EXPECT_EQ(radix_passes(8), 4);
  EXPECT_EQ(radix_passes(9), 4);
  EXPECT_EQ(radix_passes(10), 4);
  EXPECT_EQ(radix_passes(11), 3);
  EXPECT_EQ(radix_passes(12), 3);
  EXPECT_EQ(radix_passes(16), 2);
  EXPECT_THROW(radix_passes(0), Error);
}

class SeqRadixDist : public ::testing::TestWithParam<keys::Dist> {};

TEST_P(SeqRadixDist, SortsEveryDistribution) {
  auto keys = make_keys(GetParam(), 10000);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<Key> tmp(keys.size());
  seq_radix_sort(keys, tmp, 8);
  EXPECT_EQ(keys, expect);
}

INSTANTIATE_TEST_SUITE_P(AllDists, SeqRadixDist,
                         ::testing::ValuesIn(keys::kAllDists),
                         [](const auto& info) {
                           return keys::dist_name(info.param);
                         });

class SeqRadixBits : public ::testing::TestWithParam<int> {};

TEST_P(SeqRadixBits, SortsAtEveryRadixSize) {
  auto keys = make_keys(keys::Dist::kRandom, 4096);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<Key> tmp(keys.size());
  seq_radix_sort(keys, tmp, GetParam());
  EXPECT_EQ(keys, expect);
}

INSTANTIATE_TEST_SUITE_P(Radix1To16, SeqRadixBits,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 16));

TEST(SeqRadix, EdgeSizes) {
  for (const Index n : {0ull, 1ull, 2ull, 3ull, 31ull}) {
    auto keys = make_keys(keys::Dist::kRandom, n);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    std::vector<Key> tmp(keys.size());
    seq_radix_sort(keys, tmp, 8);
    EXPECT_EQ(keys, expect) << "n=" << n;
  }
}

TEST(SeqRadix, AlreadySortedAndReversed) {
  std::vector<Key> keys(1000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<Key>(i * 7);
  }
  auto expect = keys;
  std::vector<Key> tmp(keys.size());
  seq_radix_sort(keys, tmp, 8);
  EXPECT_EQ(keys, expect);

  std::reverse(keys.begin(), keys.end());
  seq_radix_sort(keys, tmp, 8);
  EXPECT_EQ(keys, expect);
}

TEST(SeqRadix, AllDuplicates) {
  std::vector<Key> keys(500, 42u);
  std::vector<Key> tmp(keys.size());
  seq_radix_sort(keys, tmp, 11);
  for (const Key k : keys) EXPECT_EQ(k, 42u);
}

TEST(SeqRadix, TmpTooSmallRejected) {
  std::vector<Key> keys(10), tmp(5);
  EXPECT_THROW(seq_radix_sort(keys, tmp, 8), Error);
}

TEST(LocalRadixSort, SortsAndCharges) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  auto keys = make_keys(keys::Dist::kGauss, 1 << 16);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<Key> tmp(keys.size());
  team.run([&](sim::ProcContext& ctx) {
    local_radix_sort(ctx, keys, tmp, 8);
  });
  EXPECT_EQ(keys, expect);
  const auto b = team.breakdown_of(0);
  EXPECT_GT(b.busy_ns, 0.0);
  EXPECT_GT(b.lmem_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.rmem_ns, 0.0);  // purely local
  EXPECT_DOUBLE_EQ(b.sync_ns, 0.0);
}

TEST(LocalRadixSort, InstrumentationMatchesPlainSort) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  auto a = make_keys(keys::Dist::kBucket, 5000);
  auto b = a;
  std::vector<Key> tmp(a.size());
  team.run([&](sim::ProcContext& ctx) { local_radix_sort(ctx, a, tmp, 7); });
  std::vector<Key> tmp2(b.size());
  seq_radix_sort(b, tmp2, 7);
  EXPECT_EQ(a, b);
}

TEST(LocalRadixSort, LargerFootprintCostsMore) {
  // Same per-key work, but a footprint beyond the cache and TLB reach must
  // charge more LMEM per key — the mechanism behind the paper's
  // superlinear speedups. Uses the Origin's default 16 KB pages (2 MB TLB
  // reach), the configuration the paper had to tune page size away from.
  machine::MachineParams mp = machine::MachineParams::origin2000();
  mp.page_bytes = 16 << 10;
  auto time_for = [&](Index n) {
    sim::SimTeam team(1, mp);
    auto keys = make_keys(keys::Dist::kRandom, n);
    std::vector<Key> tmp(keys.size());
    team.run([&](sim::ProcContext& ctx) {
      local_radix_sort(ctx, keys, tmp, 8);
    });
    return team.elapsed_ns() / static_cast<double>(n);
  };
  const double small = time_for(1 << 16);   // 256 KB << 4 MB cache
  const double large = time_for(1 << 22);   // 16 MB > cache and TLB reach
  EXPECT_GT(large, 1.3 * small);
}

TEST(ChargedHistogram, CountsAndActiveBuckets) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  team.run([&](sim::ProcContext& ctx) {
    std::vector<Key> keys{0, 1, 1, 255, 255, 255};
    std::vector<std::uint64_t> hist(256);
    const auto active = histogram_kernel(KernelBackend::kOptimized, keys, 0,
                                         8, hist);
    charge_histogram_pass(ctx, keys.size(), hist.size());
    if (active != 3) throw Error("active count wrong");
    if (hist[0] != 1 || hist[1] != 2 || hist[255] != 3) {
      throw Error("histogram wrong");
    }
  });
  // The counting pass charges its key sweep and counters.
  EXPECT_GT(team.elapsed_ns(), 0.0);
}

TEST(ChargedPermute, RespectsCursors) {
  sim::SimTeam team(1, machine::MachineParams::origin2000());
  team.run([&](sim::ProcContext& ctx) {
    std::vector<Key> keys{3, 1, 3, 2};
    std::vector<Key> out(4, 0xff);
    std::vector<std::uint64_t> offset(256, 0);
    offset[1] = 0;
    offset[2] = 1;
    offset[3] = 2;
    const std::uint64_t runs = permute_kernel(
        KernelBackend::kOptimized, keys, out, 0, 8, offset, 3,
        tls_radix_workspace());
    charge_permute_pass(ctx, keys.size(), runs, 3, out.size());
    const std::vector<Key> expect{1, 2, 3, 3};
    if (out != expect) throw Error("permute wrong");
    if (runs != 4) throw Error("run count wrong");
  });
  EXPECT_GT(team.elapsed_ns(), 0.0);
}

}  // namespace
}  // namespace dsm::sort
