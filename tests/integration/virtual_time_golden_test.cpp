// Virtual-time golden: one FNV-1a digest over elapsed_ns, every per-proc
// Breakdown and the mean phase report of a fixed grid of sorts. The grid
// covers the collective paths where every rank derives the same result
// from gathered data (radix prefixes, sample splitters): radix and sample
// sort under MPI and SHMEM, sample sort under CC-SAS, team sizes from 1 to
// 64, radix widths 4..16, tiny to 64K inputs, uniform-ish and
// duplicate-heavy keys, both record types, and the message-layer
// ablations. Host-speed work on those paths must leave every charged
// double unchanged, so the digest is a constant; it was recorded before
// the shared-collective rewrite and must never move.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

constexpr std::uint64_t kGoldenDigest = 14297510011253420088ull;

struct Digest {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void breakdown(const sim::Breakdown& b) {
    f64(b.busy_ns);
    f64(b.lmem_ns);
    f64(b.rmem_ns);
    f64(b.sync_ns);
  }
  void result(const SortResult& r) {
    f64(r.elapsed_ns);
    for (const sim::Breakdown& b : r.per_proc) breakdown(b);
    for (const auto& [name, b] : r.phases) {
      bytes(name.data(), name.size());
      breakdown(b);
    }
  }
};

/// Every {combo x p x radix x n} cell runs once; the key distribution and
/// the record type rotate across cells so both of each appear at every
/// team size and width without doubling the grid twice (kv32 charges
/// equal u32 charges by contract, so the rotation loses no coverage of
/// the charged paths). Ablations ride on the same cells up to 11-bit
/// digits: they change delivery, not the table, and a 16-bit radix pass
/// at p = 64 costs a quarter second of host time whatever n is.
std::vector<SortSpec> golden_grid() {
  struct Combo {
    Algo algo;
    Model model;
  };
  constexpr Combo kCombos[] = {{Algo::kRadix, Model::kMpi},
                               {Algo::kRadix, Model::kShmem},
                               {Algo::kSample, Model::kMpi},
                               {Algo::kSample, Model::kShmem},
                               {Algo::kSample, Model::kCcSas}};
  std::vector<SortSpec> grid;
  auto add = [&grid](const SortSpec& spec) {
    if (spec.validate_status().ok()) grid.push_back(spec);
  };
  unsigned cell = 0;
  for (const Combo c : kCombos) {
    for (const int p : {1, 3, 16, 64}) {
      for (const int radix : {4, 8, 11, 16}) {
        for (const Index n : {static_cast<Index>(p), Index{5000},
                              Index{1} << 16}) {
          SortSpec spec;
          spec.algo = c.algo;
          spec.model = c.model;
          spec.nprocs = p;
          spec.radix_bits = radix;
          spec.n = n;
          spec.dist = cell % 2 == 0 ? keys::Dist::kGauss : keys::Dist::kDup;
          spec.record = (cell / 2) % 2 == 0 ? keys::RecordType::kU32
                                            : keys::RecordType::kKeyPayload32;
          spec.seed = 5 + cell;
          ++cell;
          add(spec);
          if (radix > 11) continue;  // ablations do not depend on width
          if (c.model == Model::kMpi) {
            SortSpec staged = spec;
            staged.ablations.mpi_impl = msg::Impl::kStaged;
            add(staged);
          }
          if (c.algo != Algo::kRadix) continue;
          SortSpec max_key = spec;
          max_key.ablations.detect_max_key = true;
          add(max_key);
          SortSpec alt = spec;  // coalesced messages / put delivery
          if (c.model == Model::kMpi) {
            alt.ablations.mpi_chunk_messages = false;
          } else {
            alt.ablations.shmem_use_put = true;
          }
          add(alt);
        }
      }
    }
  }
  return grid;
}

std::uint64_t digest_of(const std::vector<SortSpec>& grid) {
  Digest d;
  for (const SortSpec& spec : grid) d.result(try_run_sort(spec).value());
  return d.h;
}

/// The sibling grid for the algorithm menu's sample-skeleton backends:
/// MSD and merge local sorts under CC-SAS, MPI and SHMEM. Their
/// redistribution goes through the same two-sided and get epochs the radix
/// grid pins, with a different message mix (one message per destination,
/// skewed splitter partitions). Team sizes 1 to 64, tiny to 64K inputs,
/// four key distributions (two of them duplicate-heavy or adversarial) and
/// both record types rotate across the cells; MPI cells repeat on the
/// staged transport. The digest was recorded before the per-endpoint epoch
/// engines and must never move.
constexpr std::uint64_t kMenuGoldenDigest = 10408915856856791887ull;

std::vector<SortSpec> menu_golden_grid() {
  constexpr keys::Dist kDists[] = {keys::Dist::kGauss, keys::Dist::kDup,
                                   keys::Dist::kZipf,
                                   keys::Dist::kAdversarial};
  std::vector<SortSpec> grid;
  auto add = [&grid](const SortSpec& spec) {
    if (spec.validate_status().ok()) grid.push_back(spec);
  };
  unsigned cell = 0;
  for (const Algo algo : {Algo::kMsdRadix, Algo::kMergesort}) {
    for (const Model model : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
      for (const int p : {1, 3, 16, 64}) {
        for (const Index n : {static_cast<Index>(p), Index{5000},
                              Index{1} << 16}) {
          SortSpec spec;
          spec.algo = algo;
          spec.model = model;
          spec.nprocs = p;
          spec.n = n;
          spec.dist = kDists[cell % 4];
          spec.record = (cell / 4) % 2 == 0 ? keys::RecordType::kU32
                                            : keys::RecordType::kKeyPayload32;
          spec.seed = 11 + cell;
          ++cell;
          add(spec);
          if (model == Model::kMpi) {
            SortSpec staged = spec;
            staged.ablations.mpi_impl = msg::Impl::kStaged;
            add(staged);
          }
        }
      }
    }
  }
  return grid;
}

/// The CC-SAS sibling of the radix grid: radix sort under CC-SAS (direct
/// scattered remote writes, charged from the per-home scatter tallies) and
/// CC-SAS-NEW (staged block copies), team sizes 1 to 64, radix widths 4 to
/// 16, three key distributions and both record types; the input size
/// rotates across cells. The detect_max_key cells add the max-reduction of
/// every radix model. The digest was recorded before radix sort split into
/// one host execution and per-model charge programs, and must never move.
constexpr std::uint64_t kCcSasRadixGoldenDigest = 10566003719361673498ull;

std::vector<SortSpec> ccsas_radix_golden_grid() {
  constexpr keys::Dist kDists[] = {keys::Dist::kGauss, keys::Dist::kDup,
                                   keys::Dist::kZipf};
  constexpr int kProcs[] = {1, 3, 16, 64};
  constexpr int kRadixes[] = {4, 8, 11, 16};
  std::vector<SortSpec> grid;
  auto add = [&grid](const SortSpec& spec) {
    if (spec.validate_status().ok()) grid.push_back(spec);
  };
  auto size_for = [](unsigned cell, int p) {
    const Index sizes[] = {static_cast<Index>(p), Index{5000}, Index{1} << 16};
    return sizes[(cell + cell / 6) % 3];
  };
  unsigned cell = 0;
  for (const Model model : {Model::kCcSas, Model::kCcSasNew}) {
    for (const int p : kProcs) {
      for (const int radix : kRadixes) {
        for (const keys::Dist dist : kDists) {
          for (const keys::RecordType record :
               {keys::RecordType::kU32, keys::RecordType::kKeyPayload32}) {
            SortSpec spec;
            spec.algo = Algo::kRadix;
            spec.model = model;
            spec.nprocs = p;
            spec.radix_bits = radix;
            spec.n = size_for(cell, p);
            spec.dist = dist;
            spec.record = record;
            spec.seed = 17 + cell;
            ++cell;
            add(spec);
          }
        }
      }
    }
  }
  for (const Model model :
       {Model::kCcSas, Model::kCcSasNew, Model::kMpi, Model::kShmem}) {
    for (const int p : kProcs) {
      for (const int radix : kRadixes) {
        SortSpec spec;
        spec.algo = Algo::kRadix;
        spec.model = model;
        spec.nprocs = p;
        spec.radix_bits = radix;
        spec.n = size_for(cell, p);
        spec.dist = kDists[cell % 3];
        spec.record = cell % 2 == 0 ? keys::RecordType::kU32
                                    : keys::RecordType::kKeyPayload32;
        spec.seed = 17 + cell;
        spec.ablations.detect_max_key = true;
        ++cell;
        add(spec);
      }
    }
  }
  return grid;
}

/// The sample skeleton's own ablations: sample, MSD and merge local sorts
/// under CC-SAS, MPI and SHMEM with 1, 7 and 512 samples per rank, and
/// under CC-SAS splitter groups of 1, 5 and 64 ranks (the group size
/// changes only CC-SAS charges), at team sizes 1, 3, 48 and 64. The key
/// distribution (duplicate-heavy, zipf, adversarial), the record type, the
/// input size and the kernel backend rotate across cells. The digest was
/// recorded before the sample skeleton split into one host execution and
/// per-model charge programs, and must never move.
constexpr std::uint64_t kSampleSkeletonGoldenDigest = 7092572381965482163ull;

std::vector<SortSpec> sample_skeleton_golden_grid() {
  constexpr keys::Dist kDists[] = {keys::Dist::kDup, keys::Dist::kZipf,
                                   keys::Dist::kAdversarial};
  std::vector<SortSpec> grid;
  auto add = [&grid](const SortSpec& spec) {
    if (spec.validate_status().ok()) grid.push_back(spec);
  };
  unsigned cell = 0;
  for (const Algo algo : {Algo::kSample, Algo::kMsdRadix, Algo::kMergesort}) {
    for (const Model model : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
      for (const int p : {1, 3, 48, 64}) {
        for (const int samples : {1, 7, 512}) {
          for (const int group : {1, 5, 64}) {
            if (model != Model::kCcSas && group != 5) continue;
            const Index sizes[] = {static_cast<Index>(p), Index{5000},
                                   Index{3} << 14};
            SortSpec spec;
            spec.algo = algo;
            spec.model = model;
            spec.nprocs = p;
            spec.n = sizes[(cell + cell / 3) % 3];
            spec.dist = kDists[cell % 3];
            spec.record = (cell / 3) % 2 == 0
                              ? keys::RecordType::kU32
                              : keys::RecordType::kKeyPayload32;
            spec.kernel_backend = cell % 2 == 0 ? KernelBackend::kReference
                                                : KernelBackend::kOptimized;
            spec.ablations.sample_count = samples;
            spec.ablations.sample_group_size = group;
            spec.seed = 23 + cell;
            ++cell;
            add(spec);
          }
        }
      }
    }
  }
  return grid;
}

TEST(VirtualTimeGolden, CooperativeEngine) {
  EXPECT_EQ(digest_of(golden_grid()), kGoldenDigest);
}

TEST(VirtualTimeGoldenMsdMerge, CooperativeEngine) {
  EXPECT_EQ(digest_of(menu_golden_grid()), kMenuGoldenDigest);
}

TEST(VirtualTimeGoldenRadixCcSas, CooperativeEngine) {
  EXPECT_EQ(digest_of(ccsas_radix_golden_grid()), kCcSasRadixGoldenDigest);
}

TEST(VirtualTimeGoldenSampleSkeleton, CooperativeEngine) {
  EXPECT_EQ(digest_of(sample_skeleton_golden_grid()),
            kSampleSkeletonGoldenDigest);
}

}  // namespace
}  // namespace dsm::sort
