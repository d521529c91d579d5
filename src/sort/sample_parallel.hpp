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
// A kv32 payload lane sits outside the simulated machine: both local
// sorts carry it along uncharged, and the redistribution pulls it in one
// step that is the same under every model.
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
#include "sort/sort_api.hpp"

namespace dsm::sort {

/// Every World reads its settings (radix bits, sample count and group
/// size, kernel backend and jobs) from `spec`, and spec.algo picks the
/// charged local sort of both sorting phases: kSample keeps the paper's
/// LSD local sorts, kMsdRadix and kMergesort reuse the identical skeleton
/// with their own local-sort kernels.
///
/// kv32 payload lanes (DESIGN.md §11): `pay` is the n-long input lane
/// indexed by global position, so rank r's partition owns
/// [homes.begin_of(r), homes.end_of(r)) of the block HomeMap every model
/// uses; `pay_result` mirrors `result`, rank by rank. The lanes are
/// host-side and uncharged: the redistribution pulls them in one
/// model-independent step, so charged times stay bit-identical to the u32
/// sort. `pay` is empty for u32, which leaves `pay_result` untouched
/// (it may then be null).
struct CcSasSampleWorld {
  const SortSpec& spec;
  sas::SharedArray<Key>* keys = nullptr;             // input, sorted in place
  std::vector<std::vector<Key>>* result = nullptr;   // [rank] output run
  std::span<keys::Payload> pay{};
  std::vector<std::vector<keys::Payload>>* pay_result = nullptr;
  // Shared scratch, sized by the driver:
  std::vector<Key>* samples = nullptr;        // sample_count * p
  std::vector<Key>* splitters = nullptr;      // p - 1 (values)
  std::vector<int>* splitter_srcs = nullptr;  // p - 1 (tie-break ranks)
  std::vector<std::uint64_t>* boundaries = nullptr;  // p * (p + 1)
};
void sample_ccsas(sim::ProcContext& ctx, CcSasSampleWorld& w);

struct MpiSampleWorld {
  const SortSpec& spec;
  msg::Communicator* comm = nullptr;
  std::vector<std::vector<Key>>* parts = nullptr;   // input, sorted in place
  std::vector<std::vector<Key>>* result = nullptr;  // [rank] output run
  std::span<keys::Payload> pay{};
  std::vector<std::vector<keys::Payload>>* pay_result = nullptr;
};
void sample_mpi(sim::ProcContext& ctx, MpiSampleWorld& w);

struct ShmemSampleWorld {
  const SortSpec& spec;
  shmem::Shmem* sh = nullptr;
  std::uint64_t off_keys = 0;  // symmetric Key array, capacity part_capacity
  Index part_capacity = 0;
  std::vector<std::vector<Key>>* result = nullptr;  // [rank] output run
  std::span<keys::Payload> pay{};
  std::vector<std::vector<keys::Payload>>* pay_result = nullptr;
};
void sample_shmem(sim::ProcContext& ctx, ShmemSampleWorld& w);

}  // namespace dsm::sort
