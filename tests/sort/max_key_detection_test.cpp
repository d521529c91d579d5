// §3.1: "The maximum key value determines how many iterations will
// actually be needed." With detect_max_key, every radix variant runs a
// collective max-reduction and executes only the passes the key width
// needs — fewer passes for small-valued keys, identical results always.
#include <gtest/gtest.h>

#include <algorithm>

#include "sort/radix_parallel.hpp"
#include "sort/seq_radix.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

TEST(RadixPassesForMax, MatchesKeyWidth) {
  EXPECT_EQ(radix_passes_for_max(8, 0), 1);      // all-zero keys: one pass
  EXPECT_EQ(radix_passes_for_max(8, 255), 1);
  EXPECT_EQ(radix_passes_for_max(8, 256), 2);
  EXPECT_EQ(radix_passes_for_max(8, 65535), 2);
  EXPECT_EQ(radix_passes_for_max(8, 65536), 3);
  EXPECT_EQ(radix_passes_for_max(8, (1u << 31) - 1), 4);
  EXPECT_EQ(radix_passes_for_max(11, (1u << 31) - 1), 3);
}

// Direct-world harness: sort small-valued keys (< 2^16) with each variant
// and check both the result and the detected pass count.
SortSpec detecting_spec(Model m, Index n, int p) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = m;
  spec.nprocs = p;
  spec.n = n;
  spec.radix_bits = 8;
  spec.ablations.detect_max_key = true;
  return spec;
}

std::vector<Key> small_keys(Index n) {
  std::vector<Key> keys(n);
  keys::GenSpec gs;
  gs.n_total = n;
  gs.nprocs = 1;
  keys::generate(keys::Dist::kRandom, keys, gs);
  for (Key& k : keys) k &= 0xffffu;  // clamp to 16 bits
  return keys;
}

TEST(MaxKeyDetection, CcSasUsesTwoPassesForSmallKeys) {
  const int p = 4;
  const Index n = 10000;
  const auto input = small_keys(n);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  sim::SimTeam team(p, machine::MachineParams::origin2000());
  sas::SharedArray<Key> a(n, p), b(n, p);
  std::copy(input.begin(), input.end(), a.data());
  sas::BucketScan scan(p, 256);
  const SortSpec spec = detecting_spec(Model::kCcSas, n, p);
  CcSasRadixWorld w{.spec = spec, .a = &a, .b = &b, .scan = &scan};
  team.run([&](sim::ProcContext& ctx) { radix_ccsas(ctx, w); });

  EXPECT_EQ(w.passes_used.load(), 2);
  // Even pass count: result in a.
  const std::span<const Key> out = a.all();
  EXPECT_TRUE(std::equal(out.begin(), out.end(), expect.begin()));
}

TEST(MaxKeyDetection, MpiUsesTwoPassesForSmallKeys) {
  const int p = 4;
  const Index n = 10000;
  const auto input = small_keys(n);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  sim::SimTeam team(p, machine::MachineParams::origin2000());
  msg::Communicator comm(team, msg::Impl::kDirect);
  const sas::HomeMap homes(n, p);
  std::vector<std::vector<Key>> parts_a(p), parts_b(p);
  for (int r = 0; r < p; ++r) {
    parts_a[r].assign(input.begin() + homes.begin_of(r),
                      input.begin() + homes.end_of(r));
    parts_b[r].resize(homes.count_of(r));
  }
  const SortSpec spec = detecting_spec(Model::kMpi, n, p);
  MpiRadixWorld w{.spec = spec, .comm = &comm, .parts_a = &parts_a,
                  .parts_b = &parts_b};
  team.run([&](sim::ProcContext& ctx) { radix_mpi(ctx, w); });

  EXPECT_EQ(w.passes_used.load(), 2);
  std::vector<Key> out;
  for (const auto& part : parts_a) out.insert(out.end(), part.begin(), part.end());
  EXPECT_EQ(out, expect);
}

TEST(MaxKeyDetection, ShmemUsesTwoPassesForSmallKeys) {
  const int p = 4;
  const Index n = 10000;
  const auto input = small_keys(n);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  sim::SimTeam team(p, machine::MachineParams::origin2000());
  const sas::HomeMap homes(n, p);
  const Index cap = homes.count_of(0);
  shmem::SymmetricHeap heap(p, 3 * (cap * sizeof(Key) + 64) + 4096);
  shmem::Shmem sh(team, heap);
  const SortSpec spec = detecting_spec(Model::kShmem, n, p);
  ShmemRadixWorld w{.spec = spec, .sh = &sh};
  w.off_a = heap.alloc<Key>(cap);
  w.off_b = heap.alloc<Key>(cap);
  w.off_stage = heap.alloc<Key>(cap);
  w.part_capacity = cap;
  for (int r = 0; r < p; ++r) {
    std::copy(input.begin() + homes.begin_of(r),
              input.begin() + homes.end_of(r), heap.at<Key>(r, w.off_a));
  }
  team.run([&](sim::ProcContext& ctx) { radix_shmem(ctx, w); });

  EXPECT_EQ(w.passes_used.load(), 2);
  std::vector<Key> out;
  for (int r = 0; r < p; ++r) {
    const Key* part = heap.at<Key>(r, w.off_a);
    out.insert(out.end(), part, part + homes.count_of(r));
  }
  EXPECT_EQ(out, expect);
}

TEST(MaxKeyDetection, FullWidthKeysKeepFullPassCount) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kShmem;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  spec.ablations.detect_max_key = true;  // gauss keys span the full 31 bits
  const SortResult res = try_run_sort(spec).value();
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.passes, radix_passes(spec.radix_bits));
}

TEST(MaxKeyDetection, DetectionCostsACollective) {
  // Detection is not free: it adds a max-reduction to an otherwise
  // identical run.
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.model = Model::kMpi;
  spec.nprocs = 8;
  spec.n = 1 << 14;
  const double plain = try_run_sort(spec).value().elapsed_ns;
  spec.ablations.detect_max_key = true;
  const double detected = try_run_sort(spec).value().elapsed_ns;
  EXPECT_GT(detected, plain);
}

TEST(MaxKeyDetection, AllModelsVerifyThroughRunSort) {
  for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                        Model::kShmem}) {
    SortSpec spec;
    spec.algo = Algo::kRadix;
    spec.model = m;
    spec.nprocs = 6;
    spec.n = 20011;
    spec.ablations.detect_max_key = true;
    EXPECT_TRUE(try_run_sort(spec).value().verified) << model_name(m);
  }
}

}  // namespace
}  // namespace dsm::sort
