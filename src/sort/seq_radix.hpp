// Sequential LSD radix sort: one body, radix_sort_impl, serves every
// caller.
//
//  * A null ChargeLog is the plain fast sort (verification, reference
//    results, merge run generation on the host); a live one instruments
//    the same loops for the virtual clock — it measures the actual access
//    pattern (bucket runs, active buckets) while sorting and logs the
//    BUSY/LMEM charges those counts price (sort/charge_log.hpp). On a
//    one-process team this is the paper's sequential baseline (Table 1);
//    it is also the local sorting phase of parallel sample sort.
//  * The kv32 payload lane is an argument (PayloadLanes, empty for u32):
//    each pass snapshots the write cursors and payload_mirror_scatter
//    replays the key permute's exact stable scatter on the lane, host
//    side and uncharged (DESIGN.md §11).
//
// The body has one reference branch (the seed's per-pass count/scan/
// scatter) and one optimized branch on the kernel layer
// (sort/kernels.hpp): the selected backend changes how the host computes
// — one-sweep histograms, write-combined permutes, skipped dead passes —
// never the sorted output or any charged virtual time (the
// charge-invariance contract, DESIGN.md §9). Callers that pass no
// workspace borrow the calling thread's, so repeated callers (the service
// executor, sweep workers) allocate no per-sort scratch.
#pragma once

#include <span>

#include "common/types.hpp"
#include "sim/proc.hpp"
#include "sort/charge_log.hpp"
#include "sort/kernels.hpp"

namespace dsm::sort {

/// Number of LSD passes needed for radix `radix_bits` over keys bounded by
/// 2^kKeyBits (the paper: "the maximum key value determines how many
/// iterations will actually be needed" — our generators all span the full
/// 31-bit range).
int radix_passes(int radix_bits);

/// Pass count needed for keys bounded by `max_key` (at least one pass).
int radix_passes_for_max(int radix_bits, Key max_key);

/// The one LSD body: sort `keys` ascending using `tmp` (same size) as the
/// toggle buffer; the result always ends up back in `keys`. log == nullptr
/// charges nothing; otherwise the sort's charges are appended to `log`,
/// identically for every backend. Non-empty `lanes` move the payload with
/// the keys (both lanes end in keys/lanes.pays); the key lane and every
/// logged charge are bit-identical to the same call without lanes.
void radix_sort_impl(ChargeLog* log, std::span<Key> keys,
                     std::span<Key> tmp, PayloadLanes lanes, int radix_bits,
                     KernelBackend be, RadixWorkspace& ws);

/// Uncharged sort (radix_sort_impl with no log).
void seq_radix_sort(std::span<Key> keys, std::span<Key> tmp, int radix_bits,
                    KernelBackend be = KernelBackend::kOptimized,
                    RadixWorkspace& ws = tls_radix_workspace(),
                    PayloadLanes lanes = {});

/// Instrumented sort (radix_sort_impl logging its charges).
void local_radix_sort(ChargeLog& log, std::span<Key> keys, std::span<Key> tmp,
                      int radix_bits,
                      KernelBackend be = KernelBackend::kOptimized,
                      RadixWorkspace& ws = tls_radix_workspace(),
                      PayloadLanes lanes = {});

/// The same sort charging ctx's clock (its log, replayed).
void local_radix_sort(sim::ProcContext& ctx, std::span<Key> keys,
                      std::span<Key> tmp, int radix_bits,
                      KernelBackend be = KernelBackend::kOptimized,
                      RadixWorkspace& ws = tls_radix_workspace(),
                      PayloadLanes lanes = {});

}  // namespace dsm::sort
