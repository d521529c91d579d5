// Parallel sample sort under the three programming models (§3.2).
//
// Five phases: local sort -> sample selection -> splitter computation ->
// one contiguous all-to-all redistribution -> local sort of the received
// keys. Twice the local sorting work of radix sort, but far
// better-behaved communication (one contiguous block per process pair,
// remote *reads* under CC-SAS).
//
// Every model runs the same data question: the same local sorts of the
// same block partitions, the same splitters, the same received runs. The
// models differ only in what they charge, so a sort is split in two
// (DESIGN.md §5.3):
//   * the record (record_sample): one model-independent host execution of
//     the skeleton. It sorts every rank's block, selects the samples,
//     picks the splitters once (pick_splitters over the rank-ordered
//     sample blocks — the result every model's collective hands back),
//     cuts every rank's sorted block at the splitters, pulls each rank's
//     received run in source-rank order and sorts it. Each local sort logs
//     its charges (sort/charge_log.hpp): the LSD, MSD and merge local
//     sorts charge only from counts, so a log replays the charges bit for
//     bit. A kv32 payload lane rides along through both local sorts and
//     the pull, uncharged (DESIGN.md §11);
//   * one charge program per model (sample_ccsas / sample_mpi /
//     sample_shmem): the model's per-rank skeleton with every key movement
//     deleted. It makes the same phase marks, charges and collectives, in
//     the same order, from the record: it replays the rank's local-sort
//     logs and charges the redistribution from the recorded boundaries.
//
// Splitter computation differs by model exactly as in the paper:
//   CC-SAS  — every group of sample_group_size processes elects a
//             collector that gathers and sorts the group's samples;
//             collectors merge across groups (everyone else waits — cheap
//             fine-grained loads);
//   MPI     — allgather all samples; every process sorts the full sample
//             set and picks splitters locally;
//   SHMEM   — like MPI with fcollect.
// Those sorts are charged to every process that performs them; the host
// never materialises the sorted copies (DESIGN.md §5.1). The group size
// changes CC-SAS charges only, so one record serves every group size.
//
// Charge programs are collective: call from every rank inside
// SimTeam::run. Rank r's output run is the record's keys from
// run_begin[r] to run_begin[r + 1]; their concatenation by rank is the
// globally sorted sequence.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "msg/communicator.hpp"
#include "sas/shared_array.hpp"
#include "shmem/shmem.hpp"
#include "sim/proc.hpp"
#include "sort/charge_log.hpp"
#include "sort/record_share.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {

/// One recorded host execution of the sample-sort skeleton: everything
/// the charge programs read, and the sorted output every model reports.
/// Immutable once built; any number of sorts may charge it concurrently.
struct SampleRecord : RecordedOutput {
  static constexpr RecordKind kKind = RecordKind::kSample;

  /// A splitter carries its value and the rank that contributed the
  /// sample — ties on the value are broken by source rank (the
  /// regular-sampling duplicate handling of Li et al. [13]), which keeps
  /// duplicate-heavy inputs (the paper's `zero` distribution) balanced.
  struct Splitter {
    Key value = 0;
    int src = 0;
  };

  sas::HomeMap homes{0, 1};  // the block partition every model uses
  int sample_count = 0;      // samples per rank
  std::vector<Key> samples;  // [rank * sample_count + i]
  std::vector<Splitter> splitters;  // p - 1
  /// Rank j's sorted block cut by destination: [j * (p + 1) + d], with
  /// entry 0 = 0 and entry p = the block's size.
  std::vector<std::uint64_t> bounds;
  std::vector<ChargeLog> sort1;  // [rank] charges of local sort 1
  std::vector<ChargeLog> sort2;  // [rank] charges of local sort 2
  std::vector<std::uint64_t> run_begin;  // p + 1 offsets into keys

  int nprocs() const { return homes.nprocs(); }
  /// Rank r's samples.
  std::span<const Key> samples_of(int r) const;
  /// Rank j's boundaries row (p + 1 entries).
  std::span<const std::uint64_t> bounds_of(int j) const;
  /// Keys rank `src` sends rank `dst`.
  std::uint64_t count(int src, int dst) const;
  /// Rank r's output run.
  std::span<const Key> run(int r) const;
};

/// Execute the skeleton `spec` describes (algo's local sort, radix bits,
/// sample count, kernel backend and jobs) over `keys`, the global input in
/// block-partition order, with `payloads` (empty for u32) riding along.
/// Polls spec.hooks.cancel between ranks. The input checksums and the
/// verdict are the caller's to fill.
SampleRecord record_sample(const SortSpec& spec, std::vector<Key> keys,
                           std::vector<keys::Payload> payloads);

/// The charge programs. Each reads its settings (sample count, group
/// size) from `spec` and its counts from `rec`, recorded for the same
/// spec up to the group size.
struct CcSasSampleWorld {
  const SortSpec& spec;
  const SampleRecord& rec;
};
void sample_ccsas(sim::ProcContext& ctx, const CcSasSampleWorld& w);

struct MpiSampleWorld {
  const SortSpec& spec;
  const SampleRecord& rec;
  msg::Communicator* comm = nullptr;
};
void sample_mpi(sim::ProcContext& ctx, const MpiSampleWorld& w);

struct ShmemSampleWorld {
  const SortSpec& spec;
  const SampleRecord& rec;
  shmem::Shmem* sh = nullptr;
};
void sample_shmem(sim::ProcContext& ctx, const ShmemSampleWorld& w);

}  // namespace dsm::sort
