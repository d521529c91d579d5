// MSD in-place byte radix sort — the kxsort shape over RecordTraits.
//
// The comparison point to the LSD sorts in seq_radix.hpp: where LSD
// always runs radix_passes() full histogram+permute sweeps through a
// same-sized scratch buffer, MSD recurses top byte first and only does
// the work the key structure demands:
//
//   * American-flag in-place permutation — cycle-chasing swaps inside the
//     span itself, so no full-size scratch buffer is ever allocated and
//     the permute footprint is half of LSD's toggle pair;
//   * insertion-sort base case below kMsdCutoff keys;
//   * single-bucket passes descend without permuting, and an all-equal
//     span (detected in the counting sweep) terminates the recursion —
//     this is what makes duplicate-heavy inputs cheap: once a bucket
//     holds one distinct value, one counting sweep ends it.
//
// The price on uniform keys: every in-place placement reads the
// displaced element at its destination — a dependent random read per
// store that the LSD scatter does not pay — plus the insertion-sort tail
// over every leaf. The planner's cost model prices both effects, which
// is why MSD wins dup/adversarial cells and loses gauss ones.
//
// Layering matches seq_radix.hpp: a generic uncharged template core
// (msd_record_sort, usable on any RecordTraits instantiation and from
// sanitizer closures that exclude the simulator), plus charged
// local_* entry points in msd_radix.cpp that honor the kernel-backend
// contract: kReference/kOptimized may change how the counting sweep is
// computed, never the sorted output or any charged virtual time
// (DESIGN.md §9). The kv32 payload lane is an optional argument of the
// charged sort; it keeps the record-oblivious contract (§11) with a
// host-side stable pair mirror.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "keys/record.hpp"
#include "sim/proc.hpp"
#include "sort/charge_log.hpp"
#include "sort/kernels.hpp"

namespace dsm::sort {

/// Byte buckets of the MSD recursion (kth_byte ranges over 0..255).
inline constexpr std::size_t kMsdBuckets = 256;

/// Spans at or below this size use the insertion-sort base case.
inline constexpr std::size_t kMsdCutoff = 32;

/// Insertion sort (stable) over any RecordTraits instantiation. Returns
/// the number of element shifts performed — a pure function of the input
/// order, charged by the instrumented callers as measured work.
template <typename Traits>
std::uint64_t msd_insertion_sort(std::span<typename Traits::record_type> recs) {
  using R = typename Traits::record_type;
  std::uint64_t shifts = 0;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    R v = recs[i];
    std::size_t j = i;
    while (j > 0 && Traits::compare(v, recs[j - 1])) {
      recs[j] = recs[j - 1];
      --j;
      ++shifts;
    }
    recs[j] = v;
  }
  return shifts;
}

namespace detail {

/// One recursion node: count byte `byte_k`, American-flag permute the
/// span into bucket order, recurse into buckets on byte_k-1. NOT stable
/// (the in-place cycle chase reorders equal elements) — payload-bearing
/// callers mirror stability host-side, see msd_radix.cpp.
template <typename Traits>
void msd_record_sort_at(std::span<typename Traits::record_type> recs,
                        int byte_k) {
  using R = typename Traits::record_type;
  const std::size_t n = recs.size();
  if (n <= kMsdCutoff) {
    msd_insertion_sort<Traits>(recs);
    return;
  }

  std::array<std::size_t, kMsdBuckets> count{};
  const Key first = Traits::key_of(recs[0]);
  bool all_equal = true;
  for (const R& r : recs) {
    ++count[static_cast<std::size_t>(Traits::kth_byte(r, byte_k))];
    all_equal = all_equal && Traits::key_of(r) == first;
  }
  if (all_equal) return;  // one distinct key: nothing left at any depth

  std::array<std::size_t, kMsdBuckets> start;
  std::size_t acc = 0;
  std::size_t active = 0;
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    start[b] = acc;
    acc += count[b];
    active += count[b] != 0 ? 1 : 0;
  }

  if (active > 1) {
    // American-flag permutation: chase displacement cycles in place.
    std::array<std::size_t, kMsdBuckets> head = start;
    for (std::size_t b = 0; b < kMsdBuckets; ++b) {
      const std::size_t end = start[b] + count[b];
      while (head[b] < end) {
        R v = recs[head[b]];
        auto d = static_cast<std::size_t>(Traits::kth_byte(v, byte_k));
        while (d != b) {
          R displaced = recs[head[d]];
          recs[head[d]] = v;
          ++head[d];
          v = displaced;
          d = static_cast<std::size_t>(Traits::kth_byte(v, byte_k));
        }
        recs[head[b]] = v;
        ++head[b];
      }
    }
  }
  if (byte_k == 0) return;
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    if (count[b] > 1) {
      msd_record_sort_at<Traits>(recs.subspan(start[b], count[b]), byte_k - 1);
    }
  }
}

}  // namespace detail

/// Generic in-place MSD radix sort: ascending by Traits::key_of, no
/// scratch allocation, not stable. The semantic core the charged entry
/// points and the sanitizer tiers share.
template <typename Traits>
void msd_record_sort(std::span<typename Traits::record_type> recs) {
  if (recs.size() > 1) {
    detail::msd_record_sort_at<Traits>(recs, Traits::n_bytes - 1);
  }
}

/// Uncharged key sort (host-only; bench + tests). The backend changes how
/// the counting sweep is computed (kOptimized unrolls it into subtable
/// accumulators), never the output.
void seq_msd_sort(std::span<Key> keys,
                  KernelBackend be = KernelBackend::kOptimized,
                  RadixWorkspace& ws = tls_radix_workspace());

/// Instrumented variant; sorts and logs its charges. Result in `keys`.
/// The charges are identical for every backend and are a pure function
/// of the key sequence (counting sweeps, measured digit runs, measured
/// insertion shifts). Non-empty `lanes` (kv32) leave the key lane and the
/// charges bit-identical; because this key sort reorders equal keys, the
/// payload lane is re-derived host-side by stable_payload_mirror, so
/// equal keys keep their incoming payload order (`lanes.tmp` is unused).
void local_msd_sort(ChargeLog& log, std::span<Key> keys,
                    KernelBackend be = KernelBackend::kOptimized,
                    RadixWorkspace& ws = tls_radix_workspace(),
                    PayloadLanes lanes = {});

/// The same sort charging ctx's clock (its log, replayed).
void local_msd_sort(sim::ProcContext& ctx, std::span<Key> keys,
                    KernelBackend be = KernelBackend::kOptimized,
                    RadixWorkspace& ws = tls_radix_workspace(),
                    PayloadLanes lanes = {});

}  // namespace dsm::sort
