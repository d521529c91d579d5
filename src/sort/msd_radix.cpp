#include "sort/msd_radix.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace dsm::sort {
namespace {

using KeyTraits = keys::RecordTraits<Key>;

/// Everything the charged recursion needs from one counting sweep, all
/// pure functions of the key sequence — both backends must produce these
/// bit-identically (the charge-invariance contract, DESIGN.md §9).
struct CountSweep {
  std::array<std::size_t, kMsdBuckets> count;
  std::uint64_t runs = 0;   // maximal equal-digit runs in source order
  bool all_equal = false;   // the whole span is one distinct key
};

/// Reference counting sweep: the plain loop, kept verbatim in the seed
/// style — one histogram increment, run boundary test, and all-equal
/// test per key.
CountSweep sweep_reference(std::span<const Key> a, int byte_k) {
  CountSweep s{};
  const Key first = a[0];
  auto prev = static_cast<std::size_t>(KeyTraits::kth_byte(a[0], byte_k));
  s.runs = 1;
  s.all_equal = true;
  for (const Key k : a) {
    const auto d = static_cast<std::size_t>(KeyTraits::kth_byte(k, byte_k));
    ++s.count[d];
    if (d != prev) {
      ++s.runs;
      prev = d;
    }
    s.all_equal = s.all_equal && k == first;
  }
  return s;
}

/// Optimized counting sweep: 4-way unrolled with independent subtable
/// accumulators (breaks the store-to-load dependence between equal
/// digits) and branchless run/equality accumulation. Produces exactly the
/// reference's (count, runs, all_equal).
CountSweep sweep_optimized(std::span<const Key> a, int byte_k) {
  CountSweep s{};
  const std::size_t n = a.size();
  const int shift = 8 * byte_k;
  const Key first = a[0];

  // All-equal fast path: duplicate-heavy recursions spend most sweep
  // work on spans holding one distinct key, where the histogram is fully
  // determined — one vectorizable equality scan replaces it. A mixed
  // span exits the scan at the first mismatch, so the wasted work is a
  // few compares. Results are exactly the reference's: the single digit
  // holds every key, one run, all_equal set.
  {
    std::size_t eq = 1;
    for (; eq + 8 <= n; eq += 8) {
      Key diff8 = 0;
      for (std::size_t j = 0; j < 8; ++j) diff8 |= a[eq + j] ^ first;
      if (diff8 != 0) break;
    }
    for (; eq < n && a[eq] == first; ++eq) {
    }
    if (eq == n) {
      s.count[(first >> shift) & 0xffu] = n;
      s.runs = 1;
      s.all_equal = true;
      return s;
    }
  }

  std::array<std::uint32_t, kMsdBuckets> c0{}, c1{}, c2{}, c3{};
  Key diff = 0;
  std::uint64_t boundaries = 0;
  ++c0[(a[0] >> shift) & 0xffu];
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const Key k0 = a[i], k1 = a[i + 1], k2 = a[i + 2], k3 = a[i + 3];
    const std::uint32_t p = (a[i - 1] >> shift) & 0xffu;
    const std::uint32_t d0 = (k0 >> shift) & 0xffu;
    const std::uint32_t d1 = (k1 >> shift) & 0xffu;
    const std::uint32_t d2 = (k2 >> shift) & 0xffu;
    const std::uint32_t d3 = (k3 >> shift) & 0xffu;
    ++c0[d0];
    ++c1[d1];
    ++c2[d2];
    ++c3[d3];
    boundaries += static_cast<std::uint64_t>(d0 != p) + (d1 != d0) +
                  (d2 != d1) + (d3 != d2);
    diff |= (k0 ^ first) | (k1 ^ first) | (k2 ^ first) | (k3 ^ first);
  }
  for (; i < n; ++i) {
    const Key k = a[i];
    const std::uint32_t d = (k >> shift) & 0xffu;
    ++c0[d];
    boundaries += static_cast<std::uint64_t>(((a[i - 1] >> shift) & 0xffu) != d);
    diff |= k ^ first;
  }
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    s.count[b] = static_cast<std::size_t>(c0[b]) + c1[b] + c2[b] + c3[b];
  }
  s.runs = 1 + boundaries;
  s.all_equal = diff == 0;
  return s;
}

/// The American-flag in-place permutation, shared by both backends (its
/// result and its measured inputs are what the charges price).
void flag_permute(std::span<Key> a, int byte_k,
                  const std::array<std::size_t, kMsdBuckets>& start,
                  const std::array<std::size_t, kMsdBuckets>& count) {
  std::array<std::size_t, kMsdBuckets> head = start;
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    const std::size_t end = start[b] + count[b];
    while (head[b] < end) {
      Key v = a[head[b]];
      auto d = static_cast<std::size_t>(KeyTraits::kth_byte(v, byte_k));
      while (d != b) {
        const Key displaced = a[head[d]];
        a[head[d]] = v;
        ++head[d];
        v = displaced;
        d = static_cast<std::size_t>(KeyTraits::kth_byte(v, byte_k));
      }
      a[head[b]] = v;
      ++head[b];
    }
  }
}

/// One recursion node; log == nullptr is the uncharged (bench/test) path.
/// Mirrors detail::msd_record_sort_at exactly, so the charged sort and
/// the generic template produce identical outputs.
void msd_sort_node(ChargeLog* log, KernelBackend be, std::span<Key> a,
                   int byte_k) {
  const std::size_t n = a.size();
  if (n <= 1) return;
  if (n <= kMsdCutoff) {
    const std::uint64_t shifts = msd_insertion_sort<KeyTraits>(a);
    if (log != nullptr) log->insertion(n, shifts);
    return;
  }

  const CountSweep s = be == KernelBackend::kReference
                           ? sweep_reference(a, byte_k)
                           : sweep_optimized(a, byte_k);
  if (log != nullptr) log->count_sweep(n);
  if (s.all_equal) return;

  std::array<std::size_t, kMsdBuckets> start;
  std::size_t acc = 0;
  std::uint64_t active = 0;
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    start[b] = acc;
    acc += s.count[b];
    active += static_cast<std::uint64_t>(s.count[b] != 0);
  }

  if (active > 1) {
    flag_permute(a, byte_k, start, s.count);
    if (log != nullptr) log->flag_permute(n, s.runs, active);
  }
  if (byte_k == 0) return;
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    if (s.count[b] > 1) {
      msd_sort_node(log, be, a.subspan(start[b], s.count[b]), byte_k - 1);
    }
  }
}

}  // namespace

void seq_msd_sort(std::span<Key> keys, KernelBackend be, RadixWorkspace&) {
  msd_sort_node(nullptr, be, keys, KeyTraits::n_bytes - 1);
}

void local_msd_sort(ChargeLog& log, std::span<Key> keys, KernelBackend be,
                    RadixWorkspace& ws, PayloadLanes lanes) {
  // Host-side stable pair mirror (uncharged, DESIGN.md §11), derived from
  // the unsorted keys because the key sort reorders equal keys.
  if (!lanes.pays.empty()) stable_payload_mirror(keys, lanes.pays, ws);
  msd_sort_node(&log, be, keys, KeyTraits::n_bytes - 1);
}

void local_msd_sort(sim::ProcContext& ctx, std::span<Key> keys,
                    KernelBackend be, RadixWorkspace& ws, PayloadLanes lanes) {
  ChargeLog log;
  local_msd_sort(log, keys, be, ws, lanes);
  log.replay(ctx);
}

}  // namespace dsm::sort
