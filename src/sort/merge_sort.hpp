// K-way multiway mergesort — the comparison-based counterpoint to the
// radix family, and the building block for external sorting (ROADMAP
// item 3).
//
// Shape:
//   1. a backbone/stray split sweep (exact longest non-decreasing
//      subsequence via the patience method) peels an
//      ascending backbone off the input. No strays → the input was
//      sorted and one sweep ends the sort. A dominant backbone (≥ n/2)
//      takes the nearly-sorted path: LSD-sort just the strays, then one
//      2-way merge — the regime where mergesort beats every radix sort;
//   2. otherwise: cache-sized sorted-run generation (kMergeRunBlock
//      keys per run, sorted with the existing LSD kernels so runs get
//      every kernel-layer win), then rounds of k-way merging with
//      fanout ≤ kMergeFanout.
//
// The merge itself exists twice under the kernel-backend contract
// (DESIGN.md §9): kReference picks each output element with a linear
// scan over the k run heads; kOptimized runs a loser tree (log2 k
// comparisons per element). Both implement the same selection rule —
// smallest key, ties to the lowest run index — so outputs and every
// measured charge input (the run-switch segment count) are
// bit-identical.
//
// Like msd_radix.hpp, the uncharged cores are header templates over
// RecordTraits (usable from sanitizer closures without the simulator);
// the charged local_* entry points live in merge_sort.cpp. The charged
// sort takes the kv32 payload lane as an optional argument and keeps the
// record-oblivious contract (§11) with a host-side stable pair mirror.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "keys/record.hpp"
#include "sim/proc.hpp"
#include "sort/charge_log.hpp"
#include "sort/kernels.hpp"

namespace dsm::sort {

/// Keys per generated run: 2^14 keys = 64 KiB, so one run plus its
/// toggle buffer stays cache-resident during generation.
inline constexpr std::size_t kMergeRunBlock = std::size_t{1} << 14;

/// Maximum ways per merge round: 64 runs keep the head working set (and
/// the loser tree) inside L1 while one round covers 2^20 keys.
inline constexpr std::size_t kMergeFanout = 64;

/// Linear-scan k-way merge of sorted `runs` into `out` (out.size() must
/// equal the total run length): each output element is the smallest live
/// head, ties to the lowest run index. Returns the number of output
/// segments drawn from a single run without switching — a pure function
/// of the run contents that the charged callers price (few segments =
/// stream-like reads; ~n segments = a gather).
template <typename Traits>
std::uint64_t linear_merge(
    std::span<const std::span<const typename Traits::record_type>> runs,
    std::span<typename Traits::record_type> out) {
  const std::size_t k = runs.size();
  std::vector<std::size_t> pos(k, 0);
  std::uint64_t segments = 0;
  std::size_t prev = k;
  for (std::size_t o = 0; o < out.size(); ++o) {
    std::size_t best = k;
    for (std::size_t r = 0; r < k; ++r) {
      if (pos[r] >= runs[r].size()) continue;
      if (best == k ||
          Traits::compare(runs[r][pos[r]], runs[best][pos[best]])) {
        best = r;
      }
    }
    DSM_REQUIRE(best != k, "merge output larger than its runs");
    out[o] = runs[best][pos[best]++];
    segments += best != prev ? 1 : 0;
    prev = best;
  }
  return segments;
}

/// Loser-tree k-way merge: identical selection rule, output, and segment
/// count as linear_merge, at log2(k) comparisons per element.
template <typename Traits>
std::uint64_t loser_tree_merge(
    std::span<const std::span<const typename Traits::record_type>> runs,
    std::span<typename Traits::record_type> out) {
  using R = typename Traits::record_type;
  const std::size_t k = runs.size();
  if (k == 1) {
    DSM_REQUIRE(out.size() == runs[0].size(),
                "merge output larger than its runs");
    std::copy(runs[0].begin(), runs[0].end(), out.begin());
    return out.empty() ? 0 : 1;
  }
  const std::size_t K = std::bit_ceil(k);  // leaves, padded with exhausted
  std::vector<std::size_t> pos(k, 0);
  const auto exhausted = [&](std::size_t i) {
    return i >= k || pos[i] >= runs[i].size();
  };
  const auto head = [&](std::size_t i) -> const R& { return runs[i][pos[i]]; };
  // Does contestant i strictly beat j? Exhausted lanes lose to everything;
  // key ties go to the lower run index (the stability rule).
  const auto wins = [&](std::size_t i, std::size_t j) {
    if (exhausted(i)) return false;
    if (exhausted(j)) return true;
    if (Traits::compare(head(i), head(j))) return true;
    if (Traits::compare(head(j), head(i))) return false;
    return i < j;
  };
  // loser[node] holds the loser of the match at internal node `node`
  // (1..K-1); loser[0] holds the overall winner. Built bottom-up.
  std::vector<std::size_t> loser(K);
  {
    std::vector<std::size_t> win(2 * K);
    for (std::size_t i = 0; i < K; ++i) win[K + i] = i;
    for (std::size_t node = K - 1; node >= 1; --node) {
      const std::size_t a = win[2 * node];
      const std::size_t b = win[2 * node + 1];
      const bool a_wins = wins(a, b) || !wins(b, a);  // tie → lower index a
      win[node] = a_wins ? a : b;
      loser[node] = a_wins ? b : a;
    }
    loser[0] = win[1];
  }
  const auto replay = [&](std::size_t leaf) {
    std::size_t w = leaf;
    for (std::size_t node = (K + leaf) >> 1; node >= 1; node >>= 1) {
      if (wins(loser[node], w)) std::swap(loser[node], w);
    }
    loser[0] = w;
  };
  std::uint64_t segments = 0;
  std::size_t prev = K;
  for (std::size_t o = 0; o < out.size(); ++o) {
    const std::size_t w = loser[0];
    DSM_REQUIRE(!exhausted(w), "merge output larger than its runs");
    out[o] = head(w);
    ++pos[w];
    segments += w != prev ? 1 : 0;
    prev = w;
    replay(w);
  }
  return segments;
}

/// Generic uncharged mergesort over records: sorted-run generation with
/// the stable LSD pair sort, then loser-tree rounds. Result in `recs`;
/// stable (runs are generated stably and ties merge lowest-run-first).
/// The semantic core the charged entry points are tested against.
template <typename Traits>
void record_merge_sort(std::span<typename Traits::record_type> recs,
                       std::span<typename Traits::record_type> tmp,
                       int radix_bits) {
  using R = typename Traits::record_type;
  const std::size_t n = recs.size();
  DSM_REQUIRE(tmp.size() >= n, "tmp must be at least as large");
  if (n <= 1) return;
  std::vector<std::size_t> bounds{0};
  for (std::size_t off = 0; off < n; off += kMergeRunBlock) {
    const std::size_t len = std::min(kMergeRunBlock, n - off);
    keys::record_lsd_sort<Traits>(recs.subspan(off, len),
                                  tmp.subspan(off, len), radix_bits);
    bounds.push_back(off + len);
  }
  std::span<R> src = recs;
  std::span<R> dst = tmp.subspan(0, n);
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t g = 0; g + 1 < bounds.size(); g += kMergeFanout) {
      const std::size_t ways =
          std::min(kMergeFanout, bounds.size() - 1 - g);
      std::vector<std::span<const R>> group(ways);
      for (std::size_t r = 0; r < ways; ++r) {
        group[r] = src.subspan(bounds[g + r], bounds[g + r + 1] - bounds[g + r]);
      }
      const std::size_t lo = bounds[g];
      const std::size_t hi = bounds[g + ways];
      loser_tree_merge<Traits>(
          std::span<const std::span<const R>>(group.data(), group.size()),
          dst.subspan(lo, hi - lo));
      next.push_back(hi);
    }
    std::swap(src, dst);
    bounds = std::move(next);
  }
  if (src.data() != recs.data()) {
    std::copy(src.begin(), src.end(), recs.begin());
  }
}

/// Uncharged key sort (host-only; bench + tests). `tmp` is the toggle /
/// stray buffer, same size as keys. kReference merges with the linear
/// scan, kOptimized with the loser tree — identical output.
void seq_merge_sort(std::span<Key> keys, std::span<Key> tmp, int radix_bits,
                    KernelBackend be = KernelBackend::kOptimized,
                    RadixWorkspace& ws = tls_radix_workspace());

/// Instrumented variant; sorts and logs its charges. Result in `keys`.
/// The charges are identical for every backend: pure functions of the
/// key sequence (split sweep, the charged LSD run sorts, and per merge
/// round the measured run-switch segment count). Non-empty `lanes` (kv32)
/// leave the key lane and the charges bit-identical; the payload lane is
/// re-derived host-side by stable_payload_mirror (the split/merge data
/// path is not itself mirrored; `lanes.tmp` is unused).
void local_merge_sort(ChargeLog& log, std::span<Key> keys, std::span<Key> tmp,
                      int radix_bits,
                      KernelBackend be = KernelBackend::kOptimized,
                      RadixWorkspace& ws = tls_radix_workspace(),
                      PayloadLanes lanes = {});

/// The same sort charging ctx's clock (its log, replayed).
void local_merge_sort(sim::ProcContext& ctx, std::span<Key> keys,
                      std::span<Key> tmp, int radix_bits,
                      KernelBackend be = KernelBackend::kOptimized,
                      RadixWorkspace& ws = tls_radix_workspace(),
                      PayloadLanes lanes = {});

}  // namespace dsm::sort
