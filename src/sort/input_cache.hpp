// Host-side input reuse for back-to-back sorts of the same data set.
//
// A figure sweep sorts the identical input once per programming model and
// radix size, and the service sorts a job's input again for its audit and
// for the cluster master's integrity expectation; regenerating the keys
// and their checksum each time dominated host time.
// generate_partitions_cached() serves such repeats from a thread-local
// slot holding the most recently requested input, keyed by what the
// generators actually depend on:
//
//   * every distribution: (dist, n_total, seed)
//   * bucket/stagger/remote/local additionally: nprocs
//   * remote/local additionally: radix_bits
//
// gauss/random/zero/half produce the same global stream for every
// partitioning (see keys/distributions.hpp), so one slot serves every
// process count of such an input — including the sequential baseline.
//
// One slot is enough because every repeat arrives back to back on one
// thread: a service job's primary run, its audit and the master's
// integrity expectation follow each other and no two jobs share a seed;
// the figure benches run one input's cells consecutively on one worker.
// Measured on the benchmark's service workloads, a 256 MiB LRU hit exactly
// the 20% audit share, as one slot does, while its dead inputs pushed peak
// RSS to 140-180 MB (one slot: 20-40 MB). The slot's key storage is reused
// across misses: it grows on demand, is never zero-filled, and is released
// only by input_cache_clear() or a budget below it. Inputs larger than
// half of input_cache_budget() bypass the slot and are generated straight
// into the partitions.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "keys/distributions.hpp"
#include "sas/shared_array.hpp"
#include "sort/verify.hpp"

namespace dsm::sort {

/// Default per-thread input-cache budget: inputs up to half of it (32M
/// keys) are cacheable.
inline constexpr std::uint64_t kInputCacheDefaultBudget =
    std::uint64_t{256} << 20;

struct InputCacheStats {
  std::size_t entries = 0;      // 0 or 1: is an input held?
  std::uint64_t bytes = 0;      // key bytes of the held input
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     // includes bypassed (uncacheable) requests
  std::uint64_t evictions = 0;  // held inputs replaced or dropped
};

/// Set this thread's cache byte budget. A budget below the slot's storage
/// drops the held input and releases the storage; 0 disables caching.
void input_cache_set_budget(std::uint64_t bytes);
std::uint64_t input_cache_budget();

/// Drop this thread's held input, release its storage and reset its
/// statistics. The budget setting is preserved.
void input_cache_clear();

InputCacheStats input_cache_stats();

/// Fill every rank's partition (host-side, uncharged — the paper times
/// sorting, not initialisation) with `dist` keys and return the input
/// multiset checksum. `part(r)` must be rank r's partition, sized to
/// `homes.count_of(r)`; partitions are the contiguous global ranges of
/// `homes`. Bit-identical to generating each partition directly.
Checksum generate_partitions_cached(
    keys::Dist dist, Index n_total, int nprocs, int radix_bits,
    std::uint64_t seed, const sas::HomeMap& homes,
    const std::function<std::span<Key>(int)>& part);

/// The input multiset checksum generate_partitions_cached() would return
/// for the block partitioning of n_total keys over nprocs ranks, without
/// copying any key out: fills or hits the slot exactly like it, so a
/// checksum-only request and a later sort of the same input share one
/// generation.
Checksum input_checksum_cached(keys::Dist dist, Index n_total, int nprocs,
                               int radix_bits, std::uint64_t seed);

}  // namespace dsm::sort
