// Parallel LSD radix sort under the three programming models (§3.1 of the
// paper), plus the restructured CC-SAS-NEW variant (§4.2.1).
//
// All variants share the same algorithm skeleton per pass:
//   1. local histogram of the current r-bit digit;
//   2. global histogram: CC-SAS uses the fine-grained parallel prefix
//      (BucketScan); MPI/SHMEM allgather the local histograms and every
//      process derives its prefixes from all p x B counts (the paper's
//      design, charged to every rank). The host builds that result once
//      per pass, as one shared HistTable (DESIGN.md §5.1);
//   3. permutation into the output array (all-to-all personalised
//      communication) — this is where the models differ:
//        CC-SAS      direct temporally-scattered remote writes
//        CC-SAS-NEW  local buffering, then contiguous block copies
//        MPI         local buffering, then one message per contiguous
//                    chunk (or one per destination, the NAS-IS style
//                    ablation)
//        SHMEM       local buffering into a symmetric staging buffer,
//                    then receiver-initiated gets (or puts, ablation)
//   4. a kv32 payload lane, which sits outside the simulated machine,
//      moves in one uncharged stable scatter to the keys' final global
//      positions, the same under every model (the lane note below).
//
// Entry points are collective: call from every rank inside SimTeam::run.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/types.hpp"
#include "msg/communicator.hpp"
#include "sas/prefix_tree.hpp"
#include "sas/shared_array.hpp"
#include "shmem/shmem.hpp"
#include "sim/proc.hpp"
#include "sort/kernels.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {

/// One radix pass's global histogram picture, built once per pass from
/// every rank's local histogram (the allgather_reduce / fcollect_reduce
/// reducer) and shared read-only by every rank of the MPI and SHMEM sorts.
/// Within bucket b the ranks' keys land in rank order, so rank j's bucket-b
/// keys occupy the global positions [start(j, b), start(j + 1, b)); row p
/// holds the bucket ends. before(j, d) counts rank j's keys that land in
/// partitions below d: the index, in j's bucket-major staging buffer, of
/// j's first key for partition d.
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
};

/// The reducer: O(p x B + p^2) over the rank-indexed local histograms.
HistTable build_hist_table(sim::Blocks<std::uint64_t> hists);

/// Visit every piece (source rank j, bucket b) of the global layout that
/// lands in partition `d`, source-major then bucket order:
/// fn(j, b, lo, hi, src) where [lo, hi) is the piece's overlap with the
/// partition in global positions and src its index in j's staging buffer.
/// Only the buckets of the partition's window are visited: O(p x window),
/// not O(p x B).
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
    // j's keys for this partition are contiguous in its staging buffer.
    std::uint64_t src = t.keys_before(j, d);
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      const std::uint64_t lo = std::max(t.start(j, b), begin);
      const std::uint64_t hi = std::min(t.start(j + 1, b), end);
      if (lo < hi) {
        fn(j, b, lo, hi, src);
        src += hi - lo;
      }
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

  // Scratch reused across passes: a slice that straddles a home boundary
  // (at most p - 1 per pass) and its walk state; slot[b] is 1 + its index
  // for such a bucket, else 0 (all zero between calls).
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
                   ScatterTally& tally);

/// kv32 payload lanes (DESIGN.md §11), one layout for every model: each
/// lane is n long and indexed by global position, so rank r's range is
/// [homes.begin_of(r), homes.end_of(r)) of the block HomeMap every model
/// uses. The lanes live on the host outside the simulated machine. Each
/// pass moves them in one uncharged model-independent step (every key
/// route lands rank r's k-th bucket-b key at the same global position), so
/// charged times stay bit-identical to the u32 sort. `pay_a` mirrors the
/// input and `pay_b` the toggle array; both empty for u32.
///
/// Every World reads its settings (radix bits, kernel backend and jobs,
/// ablations) from `spec` and holds only its storage.

/// CC-SAS radix sort over two toggling shared arrays; spec.model kCcSasNew
/// selects the buffered restructuring. After the call the sorted keys
/// (and payloads) are in `*a` if the pass count (see passes_used) is even,
/// else in `*b`.
struct CcSasRadixWorld {
  const SortSpec& spec;
  sas::SharedArray<Key>* a = nullptr;
  sas::SharedArray<Key>* b = nullptr;
  std::span<keys::Payload> pay_a{}, pay_b{};
  sas::BucketScan* scan = nullptr;
  std::atomic<int> passes_used{0};  // output (identical on every rank)
};
void radix_ccsas(sim::ProcContext& ctx, CcSasRadixWorld& w);

/// MPI radix sort over per-rank partitions (private address spaces).
/// Sorted keys end up in parts_a, and payloads in pay_a (the algorithm
/// copies back if the pass count is odd). spec.ablations.mpi_chunk_messages
/// selects one message per contiguous chunk (the paper's choice) vs one
/// coalesced message per destination with receiver-side reorganisation
/// (NAS IS style).
struct MpiRadixWorld {
  const SortSpec& spec;
  msg::Communicator* comm = nullptr;
  std::vector<std::vector<Key>>* parts_a = nullptr;  // [rank] -> partition
  std::vector<std::vector<Key>>* parts_b = nullptr;
  std::span<keys::Payload> pay_a{}, pay_b{};
  std::atomic<int> passes_used{0};  // output
};
void radix_mpi(sim::ProcContext& ctx, MpiRadixWorld& w);

/// SHMEM radix sort over symmetric partition arrays. `off_a`/`off_b` are
/// symmetric offsets of Key arrays of capacity `part_capacity` each;
/// `off_stage` a staging array of the same capacity. Sorted keys end in
/// the `off_a` array, and payloads in pay_a. spec.ablations.shmem_use_put
/// switches the permutation from receiver-initiated gets (the paper's
/// choice: data lands in the destination cache) to sender-initiated puts
/// (ablation: the next pass finds its keys cold).
struct ShmemRadixWorld {
  const SortSpec& spec;
  shmem::Shmem* sh = nullptr;
  std::uint64_t off_a = 0;
  std::uint64_t off_b = 0;
  std::uint64_t off_stage = 0;
  Index part_capacity = 0;
  std::span<keys::Payload> pay_a{}, pay_b{};
  std::atomic<int> passes_used{0};  // output
};
void radix_shmem(sim::ProcContext& ctx, ShmemRadixWorld& w);

}  // namespace dsm::sort
