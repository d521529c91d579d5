// Parallel LSD radix sort under the three programming models (§3.1 of the
// paper), plus the restructured CC-SAS-NEW variant (§4.2.1).
//
// Every model runs the same data question: a stable LSD sort of the same
// keys, block-partitioned over the ranks. The models differ only in what
// they charge for moving the keys, so a sort is split in two (DESIGN.md
// §5.3):
//   * the record (record_lsd): one model-independent host execution of
//     the LSD passes over the whole array. Per pass it counts each rank's
//     range, builds the global HistTable, derives each rank's CC-SAS
//     scatter tally, and moves all n keys in a stable scatter from the
//     table's rows (in rank-aligned groups that the sorts waiting for the
//     record help run), which lands rank r's k-th bucket-b key exactly
//     where every model's route lands it. A kv32 payload lane replays the
//     same scatter, uncharged (DESIGN.md §11);
//   * one charge program per model (radix_ccsas / radix_mpi /
//     radix_shmem): the model's per-rank skeleton with every key movement
//     deleted. It makes the same charges and collectives, in the same
//     order, from the recorded counts:
//       1. local histogram of the current r-bit digit;
//       2. global histogram: CC-SAS uses the fine-grained parallel prefix
//          (BucketScan); MPI/SHMEM allgather the local histograms and
//          every process derives its prefixes from all p x B counts (the
//          paper's design, charged to every rank; the recorded HistTable
//          is the shared result, DESIGN.md §5.1);
//       3. permutation (all-to-all personalised communication):
//            CC-SAS      direct temporally-scattered remote writes
//            CC-SAS-NEW  local buffering, then contiguous block copies
//            MPI         local buffering, then one message per contiguous
//                        chunk (or one per destination, the NAS-IS style
//                        ablation)
//            SHMEM       local buffering into a symmetric staging buffer,
//                        then receiver-initiated gets (or puts, ablation)
//
// Charge programs are collective: call from every rank inside
// SimTeam::run.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"
#include "msg/communicator.hpp"
#include "sas/prefix_tree.hpp"
#include "sas/shared_array.hpp"
#include "shmem/shmem.hpp"
#include "sim/proc.hpp"
#include "sort/kernels.hpp"
#include "sort/record_share.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {

/// One radix pass's global histogram picture, built once per pass from
/// every rank's local histogram (the allgather_reduce / fcollect_reduce
/// reducer) and shared read-only by every rank of the MPI and SHMEM sorts.
/// Within bucket b the ranks' keys land in rank order, so rank j's bucket-b
/// keys occupy the global positions [start(j, b), start(j + 1, b)); row p
/// holds the bucket ends. before(j, d) counts rank j's keys that land in
/// partitions below d, so keys_to(j, d) is the size of j's message to d.
struct HistTable {
  sas::HomeMap homes{0, 1};  // block partition of the n sorted keys
  std::size_t buckets = 0;
  std::vector<std::uint64_t> starts;  // [j * buckets + b], j in [0, p]
  std::vector<std::uint64_t> before;  // [j * (p + 1) + d], d in [0, p]

  int nprocs() const { return homes.nprocs(); }
  std::uint64_t start(int j, std::size_t b) const {
    return starts[static_cast<std::size_t>(j) * buckets + b];
  }
  std::uint64_t count(int j, std::size_t b) const {
    return start(j + 1, b) - start(j, b);
  }
  std::uint64_t keys_before(int j, int d) const {
    return before[static_cast<std::size_t>(j) *
                      static_cast<std::size_t>(nprocs() + 1) +
                  static_cast<std::size_t>(d)];
  }
  std::uint64_t keys_to(int j, int d) const {
    return keys_before(j, d + 1) - keys_before(j, d);
  }
  /// Rank j's local histogram, written into `out` (one entry per bucket).
  void counts_of(int j, std::span<std::uint64_t> out) const {
    for (std::size_t b = 0; b < buckets; ++b) out[b] = count(j, b);
  }
};

/// The reducer: O(p x B + p^2) over the rank-indexed local histograms.
HistTable build_hist_table(sim::Blocks<std::uint64_t> hists);

/// Visit every piece (source rank j, bucket b) of the global layout that
/// lands in partition `d`, source-major then bucket order: fn(j, b, lo, hi)
/// where [lo, hi) is the piece's overlap with the partition in global
/// positions. Only the buckets of the partition's window are visited:
/// O(p x window), not O(p x B).
template <typename Fn>
void for_each_inbound_piece(const HistTable& t, int d, Fn&& fn) {
  const std::uint64_t begin = t.homes.begin_of(d);
  const std::uint64_t end = t.homes.end_of(d);
  // The window: from the first bucket ending after begin (row p holds the
  // bucket ends) to the first bucket starting at or after end (row 0).
  const std::uint64_t* starts = t.starts.data();
  const std::uint64_t* ends =
      starts + static_cast<std::size_t>(t.nprocs()) * t.buckets;
  const auto b_lo = static_cast<std::size_t>(
      std::upper_bound(ends, ends + t.buckets, begin) - ends);
  const auto b_hi = static_cast<std::size_t>(
      std::lower_bound(starts, starts + t.buckets, end) - starts);
  for (int j = 0; j < t.nprocs(); ++j) {
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      const std::uint64_t lo = std::max(t.start(j, b), begin);
      const std::uint64_t hi = std::min(t.start(j + 1, b), end);
      if (lo < hi) fn(j, b, lo, hi);
    }
  }
}

/// One rank's non-buffered CC-SAS scatter of one pass, tallied per home:
/// the bytes and digit-run starts its remote stores send to every other
/// home, and the accesses and run starts that land in its own partition.
/// These are the only inputs the permutation's charges read.
struct ScatterTally {
  std::vector<std::uint64_t> bytes_to;  // [home]; the rank's own entry is 0
  std::vector<std::uint64_t> runs_to;   // [home]; the rank's own entry is 0
  std::uint64_t local_accesses = 0;
  std::uint64_t local_runs = 0;
};

/// tally_scatter's scratch, reused across calls: the slices that straddle
/// a home boundary (at most p - 1 per pass) and their walk state; slot[b]
/// is 1 + its index for such a bucket, else 0 (all zero between calls).
struct TallyScratch {
  struct Straddle {
    std::uint64_t next_pos;  // global position of the slice's next key
    std::uint64_t home_end;  // end of `home`'s partition
    std::size_t bucket;
    int home;  // home of the position before next_pos
  };
  std::vector<Straddle> straddling;
  std::vector<std::uint32_t> slot;
};

/// Derive rank r's ScatterTally of the stable scatter of `keys` by digit
/// `pass` without performing it (DESIGN.md §5.2). Bucket b's keys land, in
/// key order, on the global positions [first[b], first[b] + hist[b]);
/// run_starts[b] counts those whose predecessor in `keys` carries another
/// digit (the first key counts), as histogram_runs_kernel returns them.
/// Bytes and accesses come from splitting each slice by home. A slice that
/// lies in one home takes all its run starts there; the run starts of
/// slices that straddle a home boundary are placed by one walk over
/// `keys`, taken only when some slice straddles.
void tally_scatter(std::span<const Key> keys, int pass, int radix_bits,
                   const sas::HomeMap& homes, int r,
                   std::span<const std::uint64_t> first,
                   std::span<const std::uint64_t> hist,
                   std::span<const std::uint64_t> run_starts,
                   ScatterTally& tally, TallyScratch& scratch);

/// One recorded host execution of the LSD passes (DESIGN.md §5.3):
/// everything the charge programs read, and the sorted output every model
/// reports. Immutable once built; any number of sorts may charge it
/// concurrently.
struct LsdRecord : RecordedOutput {
  static constexpr RecordKind kKind = RecordKind::kLsd;
  sas::HomeMap homes{0, 1};  // the block partition every model uses
  int passes = 0;
  std::vector<Key> max_of;  // [rank] input maximum; detect_max_key only

  struct RankPass {
    std::uint64_t active = 0;  // nonzero buckets of the rank's histogram
    std::uint64_t runs = 0;    // digit runs of the rank's keys, in order
    ScatterTally tally;        // its non-buffered CC-SAS scatter
  };
  struct Pass {
    HistTable table;              // every rank's counts and positions
    std::vector<RankPass> ranks;  // [rank]
  };
  std::vector<Pass> pass;  // [pass]
};

/// Execute the LSD passes `spec` describes (radix bits, detect_max_key,
/// kernel backend and jobs) over `keys`, the global input in block-
/// partition order, with `payloads` (empty for u32) riding along. Polls
/// spec.hooks.cancel between passes. The input checksums and the verdict
/// are the caller's to fill.
LsdRecord record_lsd(const SortSpec& spec, std::vector<Key> keys,
                     std::vector<keys::Payload> payloads);

/// The charge programs. Each reads its settings (radix bits, ablations)
/// from `spec` and its counts from `rec`, recorded for the same spec; it
/// re-derives the pass count through the model's own collectives and
/// checks it against the record's.

/// CC-SAS; spec.model kCcSasNew selects the buffered restructuring.
struct CcSasRadixWorld {
  const SortSpec& spec;
  const LsdRecord& rec;
  sas::BucketScan* scan = nullptr;
};
void radix_ccsas(sim::ProcContext& ctx, const CcSasRadixWorld& w);

/// MPI over private partitions. spec.ablations.mpi_chunk_messages selects
/// one message per contiguous chunk (the paper's choice) vs one coalesced
/// message per destination with receiver-side reorganisation (NAS IS
/// style).
struct MpiRadixWorld {
  const SortSpec& spec;
  const LsdRecord& rec;
  msg::Communicator* comm = nullptr;
};
void radix_mpi(sim::ProcContext& ctx, const MpiRadixWorld& w);

/// SHMEM over symmetric partitions. spec.ablations.shmem_use_put switches
/// the permutation from receiver-initiated gets (the paper's choice: data
/// lands in the destination cache) to sender-initiated puts (ablation:
/// the next pass finds its keys cold).
struct ShmemRadixWorld {
  const SortSpec& spec;
  const LsdRecord& rec;
  shmem::Shmem* sh = nullptr;
};
void radix_shmem(sim::ProcContext& ctx, const ShmemRadixWorld& w);

}  // namespace dsm::sort
