// Sequential LSD radix sort: one body, radix_sort_impl, serves every
// caller.
//
//  * A null ProcContext is the plain fast sort (verification, reference
//    results, merge run generation on the host); a live one instruments
//    the same loops for the virtual clock — it measures the actual access
//    pattern (bucket runs, active buckets) while sorting and charges
//    BUSY/LMEM accordingly. This is the paper's sequential baseline
//    (Table 1) when run on a one-process team, and the local sorting
//    phase of parallel sample sort.
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
/// toggle buffer; the result always ends up back in `keys`. ctx == nullptr
/// charges nothing; otherwise ctx's clock is charged, identically for
/// every backend. Non-empty `lanes` move the payload with the keys (both
/// lanes end in keys/lanes.pays); the key lane and every charged cycle are
/// bit-identical to the same call without lanes.
void radix_sort_impl(sim::ProcContext* ctx, std::span<Key> keys,
                     std::span<Key> tmp, PayloadLanes lanes, int radix_bits,
                     KernelBackend be, RadixWorkspace& ws);

/// Uncharged sort (radix_sort_impl with no context).
void seq_radix_sort(std::span<Key> keys, std::span<Key> tmp, int radix_bits,
                    KernelBackend be = KernelBackend::kOptimized,
                    RadixWorkspace& ws = tls_radix_workspace(),
                    PayloadLanes lanes = {});

/// Instrumented sort (radix_sort_impl charging ctx's clock).
void local_radix_sort(sim::ProcContext& ctx, std::span<Key> keys,
                      std::span<Key> tmp, int radix_bits,
                      KernelBackend be = KernelBackend::kOptimized,
                      RadixWorkspace& ws = tls_radix_workspace(),
                      PayloadLanes lanes = {});

/// Charges of one counting pass over `n` keys into 2^r = `buckets`
/// counters: per-key BUSY updates, the key sweep, the resident counters.
/// One function for every caller, so the charges cannot drift between the
/// local sorts and the parallel radix charge programs.
void charge_histogram_pass(sim::ProcContext& ctx, std::uint64_t n,
                           std::size_t buckets);

/// Charges of one stable permutation of `n` keys into an `out_size`-key
/// destination, parameterised by the measured run structure (`runs`
/// digit runs in input order, `active` nonzero buckets) — pure functions
/// of the key order, hence identical under every backend.
void charge_permute_pass(sim::ProcContext& ctx, std::uint64_t n,
                         std::uint64_t runs, std::uint64_t active,
                         std::uint64_t out_size);

}  // namespace dsm::sort
