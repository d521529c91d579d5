// Sequential LSD radix sort.
//
// Two entry points:
//  * seq_radix_sort — plain fast sort (verification, reference results);
//  * local_radix_sort — the same algorithm instrumented for the virtual
//    clock: it measures the actual access pattern (bucket runs, active
//    buckets) while sorting and charges BUSY/LMEM accordingly. This is the
//    paper's sequential baseline (Table 1) when run on a one-process team,
//    and the local sorting phase of parallel sample sort.
//
// Both run on the kernel layer (sort/kernels.hpp): the selected backend
// changes how the host computes — one-sweep histograms, write-combined
// permutes, skipped dead passes — never the sorted output or any charged
// virtual time (the charge-invariance contract, DESIGN.md §9). Callers
// that pass no workspace borrow the calling thread's, so repeated callers
// (the service executor, sweep workers) allocate no per-sort scratch.
#pragma once

#include <span>

#include "common/types.hpp"
#include "sim/proc.hpp"
#include "sort/kernels.hpp"

namespace dsm::sort {

/// Number of LSD passes needed for radix `radix_bits` over keys bounded by
/// 2^kKeyBits (the paper: "the maximum key value determines how many
/// iterations will actually be needed" — our generators all span the full
/// 31-bit range).
int radix_passes(int radix_bits);

/// Pass count needed for keys bounded by `max_key` (at least one pass).
int radix_passes_for_max(int radix_bits, Key max_key);

/// Sort `keys` ascending using `tmp` as the toggle buffer (same size).
/// The sorted result is guaranteed to end up back in `keys`.
void seq_radix_sort(std::span<Key> keys, std::span<Key> tmp, int radix_bits,
                    KernelBackend be = KernelBackend::kOptimized,
                    RadixWorkspace& ws = tls_radix_workspace());

/// Instrumented variant; sorts and charges ctx's clock. Result in `keys`.
/// Charged times are identical for every backend.
void local_radix_sort(sim::ProcContext& ctx, std::span<Key> keys,
                      std::span<Key> tmp, int radix_bits,
                      KernelBackend be = KernelBackend::kOptimized,
                      RadixWorkspace& ws = tls_radix_workspace());

/// Paired (kv32) variants: the payload lane mirrors every key movement,
/// so pays[i] stays attached to keys[i] through the sort. The key lane's
/// result — and, for the charged variant, every charged cycle — is
/// bit-identical to the unpaired sort on the same keys: payload movement
/// happens on the host outside the simulated machine (the record-oblivious
/// charging contract, DESIGN.md §11). Both lanes end up back in
/// keys/pays.
void seq_radix_sort_paired(std::span<Key> keys, std::span<keys::Payload> pays,
                           std::span<Key> tmp,
                           std::span<keys::Payload> pay_tmp, int radix_bits,
                           KernelBackend be = KernelBackend::kOptimized,
                           RadixWorkspace& ws = tls_radix_workspace());
void local_radix_sort_paired(sim::ProcContext& ctx, std::span<Key> keys,
                             std::span<keys::Payload> pays, std::span<Key> tmp,
                             std::span<keys::Payload> pay_tmp, int radix_bits,
                             KernelBackend be = KernelBackend::kOptimized,
                             RadixWorkspace& ws = tls_radix_workspace());

/// One instrumented counting pass over `keys` for digit `pass`: fills
/// `hist` (size 2^radix_bits) and charges the clock. Returns the number of
/// nonzero buckets. Shared by the parallel radix sorts. (A single
/// counting pass is the same loop under every backend; the optimized
/// backend's histogram win — one sweep for all passes — lives in
/// local_radix_sort, where the pass histograms are permutation-invariant.)
/// The optimized backend may use the vectorized counting loop and shard
/// across `ws.jobs` host threads; the histogram and the charged time are
/// identical either way.
std::uint64_t charged_histogram(sim::ProcContext& ctx,
                                std::span<const Key> keys, int pass,
                                int radix_bits, std::span<std::uint64_t> hist,
                                KernelBackend be = KernelBackend::kOptimized,
                                RadixWorkspace& ws = tls_radix_workspace());

/// One instrumented permutation of `keys` into `out` by digit `pass`,
/// using `offset` (size 2^radix_bits) as the running write cursors
/// (consumed). Charges stream-read + scattered-write + BUSY with the
/// measured run structure. `active` is the nonzero bucket count from the
/// histogram. out.size() is used as the destination footprint.
void charged_local_permute(sim::ProcContext& ctx, std::span<const Key> keys,
                           std::span<Key> out, int pass, int radix_bits,
                           std::span<std::uint64_t> offset,
                           std::uint64_t active,
                           KernelBackend be = KernelBackend::kOptimized,
                           RadixWorkspace& ws = tls_radix_workspace());

}  // namespace dsm::sort
