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

// Direct harness: record small-valued keys (< 2^16) and check the sorted
// output and the detected pass count, then run a model's charge program
// over the record. The program re-derives the pass count through its
// model's own max collective (a disagreement with the record fails the
// run) and charges only those passes.
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

/// Virtual time of `spec`'s charge program over `rec`.
double charge_ns(const SortSpec& spec, const LsdRecord& rec) {
  sim::SimTeam team(spec.nprocs, machine::MachineParams::origin2000());
  switch (spec.model) {
    case Model::kCcSas:
    case Model::kCcSasNew: {
      sas::BucketScan scan(spec.nprocs, std::size_t{1} << spec.radix_bits);
      const CcSasRadixWorld w{.spec = spec, .rec = rec, .scan = &scan};
      team.run([&](sim::ProcContext& ctx) { radix_ccsas(ctx, w); });
      break;
    }
    case Model::kMpi: {
      msg::Communicator comm(team, msg::Impl::kDirect);
      const MpiRadixWorld w{.spec = spec, .rec = rec, .comm = &comm};
      team.run([&](sim::ProcContext& ctx) { radix_mpi(ctx, w); });
      break;
    }
    case Model::kShmem: {
      shmem::SymmetricHeap heap(spec.nprocs, 64);
      shmem::Shmem sh(team, heap);
      const ShmemRadixWorld w{.spec = spec, .rec = rec, .sh = &sh};
      team.run([&](sim::ProcContext& ctx) { radix_shmem(ctx, w); });
      break;
    }
  }
  return team.elapsed_ns();
}

/// Detection records and charges two passes for 16-bit keys, where the
/// same keys without detection record and charge the full count.
void expect_two_passes(Model m) {
  const int p = 4;
  const Index n = 10000;
  const auto input = small_keys(n);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  const SortSpec spec = detecting_spec(m, n, p);
  const LsdRecord rec = record_lsd(spec, input, {});
  EXPECT_EQ(rec.passes, 2);
  EXPECT_EQ(rec.keys, expect);
  SortSpec full = spec;
  full.ablations.detect_max_key = false;
  const LsdRecord full_rec = record_lsd(full, input, {});
  EXPECT_EQ(full_rec.passes, radix_passes(spec.radix_bits));
  EXPECT_EQ(full_rec.keys, expect);
  EXPECT_LT(charge_ns(spec, rec), charge_ns(full, full_rec));
  // A program charges only a record made for its own pass count: one
  // that detects fails on a record without maxima, and one that does not
  // fails on a record of the detected passes.
  EXPECT_THROW((void)charge_ns(spec, full_rec), Error);
  EXPECT_THROW((void)charge_ns(full, rec), Error);
}

TEST(MaxKeyDetection, CcSasUsesTwoPassesForSmallKeys) {
  expect_two_passes(Model::kCcSas);
  expect_two_passes(Model::kCcSasNew);
}

TEST(MaxKeyDetection, MpiUsesTwoPassesForSmallKeys) {
  expect_two_passes(Model::kMpi);
}

TEST(MaxKeyDetection, ShmemUsesTwoPassesForSmallKeys) {
  expect_two_passes(Model::kShmem);
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
