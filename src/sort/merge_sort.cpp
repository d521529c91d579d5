#include "sort/merge_sort.hpp"

#include <algorithm>

#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

using KeyTraits = keys::RecordTraits<Key>;

/// Backend dispatch for one merge group. Output and the measured segment
/// count are backend-invariant (same selection rule).
std::uint64_t merge_group(KernelBackend be,
                          std::span<const std::span<const Key>> runs,
                          std::span<Key> out) {
  return be == KernelBackend::kReference
             ? linear_merge<KeyTraits>(runs, out)
             : loser_tree_merge<KeyTraits>(runs, out);
}

/// The driver shared by the charged and uncharged entry points
/// (log == nullptr charges nothing; outputs are identical either way).
void merge_sort_impl(ChargeLog* log, std::span<Key> keys,
                     std::span<Key> tmp, int radix_bits, KernelBackend be,
                     RadixWorkspace& ws) {
  const std::size_t n = keys.size();
  DSM_REQUIRE(tmp.size() >= n, "tmp must be at least as large");
  if (n <= 1) return;

  // Phase 1: backbone/stray split. The backbone is an exact longest
  // non-decreasing subsequence (patience method: tails[l] holds the
  // smallest possible tail of a chain of length l+1), so a burst of
  // out-of-place keys can never poison the chain the way a greedy scan
  // would — the split quality is a property of the input alone. The
  // common sorted-ish case takes the O(1) extends-the-chain fast path;
  // only displaced keys pay a binary search, and the probe count is the
  // measured charge input. Backbone fills tmp from the front in input
  // order (non-decreasing by construction), strays from the back.
  // Scratch lives in the workspace: the split runs once per local sort,
  // and fresh 4n/1n-byte allocations (plus geometric tail growth) used to
  // dominate the host cost of the sorted-ish fast path. Everything is
  // fully overwritten below, so nothing needs re-zeroing.
  constexpr std::uint32_t kNoPrev = 0xffffffffu;
  if (ws.lis_tails.size() < n) {
    ws.lis_tails.resize(n);
    ws.lis_tail_at.resize(n);
    ws.lis_prev.resize(n);
  }
  Key* const tails = ws.lis_tails.data();
  std::uint32_t* const tail_at = ws.lis_tail_at.data();
  std::uint32_t* const prev = ws.lis_prev.data();
  std::size_t chain = 0;      // number of tails so far
  Key last = 0;               // == tails[chain - 1] whenever chain > 0
  std::uint32_t last_at = kNoPrev;  // == tail_at[chain - 1] whenever chain > 0
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = keys[i];
    ++probes;
    if (chain == 0 || k >= last) {  // extends-the-chain fast path
      prev[i] = last_at;
      tails[chain] = k;
      tail_at[chain] = static_cast<std::uint32_t>(i);
      ++chain;
      last = k;
      last_at = static_cast<std::uint32_t>(i);
    } else {
      std::size_t lo = 0;
      std::size_t hi = chain;
      while (lo < hi) {  // first tail strictly greater than k
        const std::size_t mid = lo + (hi - lo) / 2;
        ++probes;
        if (tails[mid] <= k) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      // lo < chain here: k < last guarantees a strictly-greater tail.
      tails[lo] = k;
      tail_at[lo] = static_cast<std::uint32_t>(i);
      if (lo + 1 == chain) {
        last = k;
        last_at = static_cast<std::uint32_t>(i);
      }
      prev[i] = lo > 0 ? tail_at[lo - 1] : kNoPrev;
    }
  }
  const std::size_t backbone = chain;
  if (log != nullptr) log->split_sweep(n, probes);
  const std::size_t strays = n - backbone;
  if (strays == 0) return;  // already sorted; keys untouched

  if (backbone >= n / 2) {
    // Nearly-sorted path: partition keys into tmp — backbone from the
    // front in input order (non-decreasing by construction), strays from
    // the back (forward input order, so the j-th stray sits at n-1-j).
    // One backward pass both walks the chain links and scatters: at each
    // chain index the key is backbone, everything between chain indices
    // is stray. (The general path below never materializes the partition
    // at all — phase 2 re-reads `keys` and tmp is just its toggle
    // buffer, so the chain walk would be wasted host passes there.)
    const std::size_t stray_at = n - strays;
    std::size_t bb = backbone;
    std::size_t stray_fill = stray_at;
    std::uint32_t at = last_at;
    for (std::size_t i = n; i-- > 0;) {
      if (i == at) {
        tmp[--bb] = keys[i];
        at = prev[i];
      } else {
        tmp[stray_fill++] = keys[i];
      }
    }
    DSM_DCHECK(bb == 0 && stray_fill == n,
               "backbone reconstruction must match LIS length");
    // Sort just the strays (the split left the full input partitioned
    // into tmp, so keys doubles as the LSD scratch), then one 2-way
    // merge back into keys.
    const std::span<Key> stray_span = tmp.subspan(stray_at, strays);
    radix_sort_impl(log, stray_span, keys.first(strays), {}, radix_bits, be,
                    ws);
    const std::span<const Key> group[2] = {tmp.first(backbone), stray_span};
    const std::uint64_t segments =
        merge_group(be, std::span<const std::span<const Key>>(group, 2), keys);
    if (log != nullptr) log->merge_round(n, 2, segments);
    return;
  }

  // Phase 2: sorted-run generation — cache-sized blocks through the
  // charged LSD kernels (keys in place, tmp as the toggle buffer).
  std::vector<std::size_t> bounds{0};
  for (std::size_t off = 0; off < n; off += kMergeRunBlock) {
    const std::size_t len = std::min(kMergeRunBlock, n - off);
    radix_sort_impl(log, keys.subspan(off, len), tmp.subspan(off, len), {},
                    radix_bits, be, ws);
    bounds.push_back(off + len);
  }

  // Phase 3: merge rounds, fanout <= kMergeFanout, toggling keys/tmp.
  std::span<Key> src = keys;
  std::span<Key> dst = tmp.subspan(0, n);
  std::vector<std::span<const Key>> group;
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t g = 0; g + 1 < bounds.size(); g += kMergeFanout) {
      const std::size_t ways = std::min(kMergeFanout, bounds.size() - 1 - g);
      group.assign(ways, {});
      for (std::size_t r = 0; r < ways; ++r) {
        group[r] =
            src.subspan(bounds[g + r], bounds[g + r + 1] - bounds[g + r]);
      }
      const std::size_t lo = bounds[g];
      const std::size_t hi = bounds[g + ways];
      const std::uint64_t segments = merge_group(
          be, std::span<const std::span<const Key>>(group.data(), ways),
          dst.subspan(lo, hi - lo));
      if (log != nullptr) log->merge_round(hi - lo, ways, segments);
      next.push_back(hi);
    }
    std::swap(src, dst);
    bounds = std::move(next);
  }
  if (src.data() != keys.data()) {
    std::copy(src.begin(), src.end(), keys.begin());
    if (log != nullptr) log->copy_back(n);
  }
}

}  // namespace

void seq_merge_sort(std::span<Key> keys, std::span<Key> tmp, int radix_bits,
                    KernelBackend be, RadixWorkspace& ws) {
  merge_sort_impl(nullptr, keys, tmp, radix_bits, be, ws);
}

void local_merge_sort(ChargeLog& log, std::span<Key> keys, std::span<Key> tmp,
                      int radix_bits, KernelBackend be, RadixWorkspace& ws,
                      PayloadLanes lanes) {
  // Host-side stable pair mirror (uncharged, DESIGN.md §11), derived from
  // the unsorted keys because the key sort reorders equal keys.
  if (!lanes.pays.empty()) stable_payload_mirror(keys, lanes.pays, ws);
  merge_sort_impl(&log, keys, tmp, radix_bits, be, ws);
}

void local_merge_sort(sim::ProcContext& ctx, std::span<Key> keys,
                      std::span<Key> tmp, int radix_bits, KernelBackend be,
                      RadixWorkspace& ws, PayloadLanes lanes) {
  ChargeLog log;
  local_merge_sort(log, keys, tmp, radix_bits, be, ws, lanes);
  log.replay(ctx);
}

}  // namespace dsm::sort
