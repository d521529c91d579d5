// Parallel sample sort under the three programming models (§3.2).
//
// Five phases: local radix sort -> sample selection -> splitter
// computation -> one contiguous all-to-all redistribution -> local radix
// sort of the received keys. Twice the local sorting work of radix sort,
// but far better-behaved communication (one contiguous block per process
// pair, remote *reads* under CC-SAS).
//
// Splitter computation differs by model exactly as in the paper:
//   CC-SAS  — every group of 32 processes elects a collector that gathers
//             and sorts the group's samples; collectors merge across
//             groups (everyone else waits — cheap fine-grained loads);
//   MPI     — allgather all samples; every process sorts the full sample
//             set and picks splitters locally;
//   SHMEM   — like MPI with fcollect.
// Those sorts are charged to every process that performs them, but the
// host computes the splitters once (allgather_reduce / fcollect_reduce,
// or rank 0 under CC-SAS) and never materialises the sorted copies
// (DESIGN.md §5.1).
//
// Entry points are collective; final runs land in (*result)[rank], whose
// concatenation by rank is the globally sorted sequence.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "msg/communicator.hpp"
#include "sas/shared_array.hpp"
#include "shmem/shmem.hpp"
#include "sim/proc.hpp"
#include "sort/kernels.hpp"

namespace dsm::sort {

/// Default per-process sample count (the paper's choice).
inline constexpr int kDefaultSampleCount = 128;

/// Which charged local sort the skeleton's two sorting phases run. The
/// sampling/splitter/redistribution phases are identical for all three:
/// Algo::kSample, kMsdRadix and kMergesort share this skeleton and
/// differ only here (plus their predictor cost models).
enum class LocalSort {
  kLsd,    // seq_radix.hpp (Algo::kSample)
  kMsd,    // msd_radix.hpp (Algo::kMsdRadix)
  kMerge,  // merge_sort.hpp (Algo::kMergesort)
};

struct CcSasSampleWorld {
  sas::SharedArray<Key>* keys = nullptr;             // input, sorted in place
  std::vector<std::vector<Key>>* result = nullptr;   // [rank] output run
  /// Optional kv32 payload lanes: `pay` mirrors the shared key array
  /// (size n_total, partitioned by the same HomeMap); `pay_result` mirrors
  /// `result`. Host-side and uncharged — charged times stay bit-identical
  /// to the u32 sort (DESIGN.md §11). Both null for u32.
  std::vector<keys::Payload>* pay = nullptr;
  std::vector<std::vector<keys::Payload>>* pay_result = nullptr;
  // Shared scratch, sized by the driver:
  std::vector<Key>* samples = nullptr;        // sample_count * p
  std::vector<Key>* splitters = nullptr;      // p - 1 (values)
  std::vector<int>* splitter_srcs = nullptr;  // p - 1 (tie-break ranks)
  std::vector<std::uint64_t>* boundaries = nullptr;  // p * (p + 1)
  int radix_bits = 11;
  int sample_count = kDefaultSampleCount;
  int group_size = 32;  // paper: "every set of 32 processes forms a group"
  LocalSort local_sort = LocalSort::kLsd;  // both local sort phases
  /// Host kernel backend for both local sort phases; charged virtual
  /// times are backend-invariant (DESIGN.md §9).
  KernelBackend kernels = KernelBackend::kOptimized;
  /// Host threads per rank for the kernel calls. Output and charged times
  /// are byte-identical for every value.
  int kernel_jobs = 1;
};
void sample_ccsas(sim::ProcContext& ctx, CcSasSampleWorld& w);

struct MpiSampleWorld {
  msg::Communicator* comm = nullptr;
  std::vector<std::vector<Key>>* parts = nullptr;   // input, sorted in place
  std::vector<std::vector<Key>>* result = nullptr;  // [rank] output run
  /// Optional kv32 payload lanes mirroring parts/result (see
  /// CcSasSampleWorld). Both null for u32.
  std::vector<std::vector<keys::Payload>>* pay_parts = nullptr;
  std::vector<std::vector<keys::Payload>>* pay_result = nullptr;
  int radix_bits = 11;
  int sample_count = kDefaultSampleCount;
  LocalSort local_sort = LocalSort::kLsd;            // both local sort phases
  KernelBackend kernels = KernelBackend::kOptimized;  // see CcSasSampleWorld
  int kernel_jobs = 1;                                // see CcSasSampleWorld
};
void sample_mpi(sim::ProcContext& ctx, MpiSampleWorld& w);

struct ShmemSampleWorld {
  shmem::Shmem* sh = nullptr;
  std::uint64_t off_keys = 0;  // symmetric Key array, capacity part_capacity
  Index part_capacity = 0;
  Index n_total = 0;
  std::vector<std::vector<Key>>* result = nullptr;  // [rank] output run
  /// Optional kv32 payload lanes: pay_parts[pe] mirrors that PE's
  /// symmetric key partition; pay_result mirrors `result` (see
  /// CcSasSampleWorld). Both null for u32.
  std::vector<std::vector<keys::Payload>>* pay_parts = nullptr;
  std::vector<std::vector<keys::Payload>>* pay_result = nullptr;
  int radix_bits = 11;
  int sample_count = kDefaultSampleCount;
  LocalSort local_sort = LocalSort::kLsd;            // both local sort phases
  KernelBackend kernels = KernelBackend::kOptimized;  // see CcSasSampleWorld
  int kernel_jobs = 1;                                // see CcSasSampleWorld
};
void sample_shmem(sim::ProcContext& ctx, ShmemSampleWorld& w);

}  // namespace dsm::sort
