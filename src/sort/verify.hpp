// Result verification: every parallel sort must produce a globally sorted
// permutation of its input. Checks are O(n) (multiset checksums +
// sortedness) so they run even at 256M keys; tests additionally use the
// exact O(n log n) multiset comparison on small inputs.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "keys/record.hpp"

namespace dsm::sort {

/// Order-independent multiset fingerprint.
struct Checksum {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;    // wraps mod 2^64
  std::uint64_t xor_ = 0;
  std::uint64_t sum_sq = 0; // wraps mod 2^64

  friend bool operator==(const Checksum&, const Checksum&) = default;
};

Checksum checksum_of(std::span<const Key> keys);
Checksum combine(const Checksum& a, const Checksum& b);

/// True if the concatenation of `runs` (in order) is ascending.
bool runs_sorted(std::span<const std::span<const Key>> runs);

/// Fused verification: checksum(runs) == `input` AND the concatenation is
/// ascending, in a single sweep over the output (the separate
/// checksum_of + runs_sorted passes read every key twice).
bool verify_sorted_runs(const Checksum& input,
                        std::span<const std::span<const Key>> runs);

/// verify_sorted_runs and run_order_hash in one sweep over the output:
/// `ok` is verify_sorted_runs(input, runs), `order_hash` is
/// run_order_hash(runs).
struct RunsVerdict {
  bool ok = false;
  std::uint64_t order_hash = 0;
};
RunsVerdict verify_and_hash_runs(const Checksum& input,
                                 std::span<const std::span<const Key>> runs);

/// Exact multiset equality (sorts copies; test-only sizes).
bool exact_multiset_equal(std::span<const Key> a, std::span<const Key> b);

/// Order-DEPENDENT fingerprint of the concatenated runs (FNV-1a over the
/// key bytes in output order). The complement of the multiset Checksum:
/// the Checksum proves a worker's result is a permutation of the input it
/// was asked to sort; this hash pins *which* permutation, so the master
/// can tell two honest hedged results agree without shipping the keys
/// back over the wire (DESIGN.md §12).
std::uint64_t run_order_hash(std::span<const std::span<const Key>> runs);

/// Order-independent fingerprint of the (key, payload) pair multiset —
/// each pair mixed through a 64-bit finalizer before the commutative
/// folds, so swapping payloads between equal-position pairs changes it.
std::uint64_t pair_fingerprint(std::span<const Key> keys,
                               std::span<const keys::Payload> payloads);

/// kv32 verification for runs of (key lane, payload lane) pairs:
///   * the key concatenation is ascending,
///   * the pair multiset equals `input_pairs` (pairing survived every
///     permutation — no payload was dropped, duplicated, or re-matched),
///   * within every run of equal keys the payloads ascend — since sorts
///     assign payload = global input index, this is exactly LSD radix
///     stability (and sample sort's deterministic duplicate placement).
/// `require_stable` disables the third check for algorithms that do not
/// promise stability. The same sweep computes run_order_hash(key_runs).
RunsVerdict verify_sorted_runs_paired(
    const Checksum& input_keys, std::uint64_t input_pairs,
    std::span<const std::span<const Key>> key_runs,
    std::span<const std::span<const keys::Payload>> payload_runs,
    bool require_stable);

}  // namespace dsm::sort
