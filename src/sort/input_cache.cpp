#include "sort/input_cache.hpp"

#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "common/scratch.hpp"

namespace dsm::sort {
namespace {

/// Does the global key stream depend on how the array is partitioned?
bool partition_dependent(keys::Dist d) {
  return d == keys::Dist::kBucket || d == keys::Dist::kStagger ||
         d == keys::Dist::kRemote || d == keys::Dist::kLocal;
}

/// Does generation read radix_bits at all?
bool radix_dependent(keys::Dist d) {
  return d == keys::Dist::kRemote || d == keys::Dist::kLocal;
}

struct CacheKey {
  keys::Dist dist = keys::Dist::kGauss;
  Index n_total = 0;
  std::uint64_t seed = 0;
  int norm_p = 0;      // nprocs, or 1 for partition-independent dists
  int norm_radix = 0;  // radix_bits, or 0 for radix-independent dists

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// One thread's cache: the most recently requested cacheable input. The
/// storage outlives the input it holds, so a miss regenerates in place and
/// steady traffic allocates (and zero-fills) nothing.
struct Slot {
  std::optional<CacheKey> key;  // the held input; empty when none
  ScratchVector<Key> storage;   // the held global array is its prefix
  Checksum sum;
  std::uint64_t budget = kInputCacheDefaultBudget;
  InputCacheStats stats;

  void release() {
    if (key.has_value()) ++stats.evictions;
    key.reset();
    storage = ScratchVector<Key>();
  }
};

thread_local Slot tl_slot;

/// Generate every rank's slice into `part(r)` and return the combined
/// checksum — the one generation loop behind the slot and both bypasses,
/// so every path produces identical bytes.
Checksum generate_into(keys::Dist dist, Index n_total, int nprocs,
                       int radix_bits, std::uint64_t seed,
                       const sas::HomeMap& homes,
                       const std::function<std::span<Key>(int)>& part) {
  Checksum total;
  for (int r = 0; r < nprocs; ++r) {
    const std::span<Key> out = part(r);
    DSM_CHECK(out.size() == homes.count_of(r), "partition size mismatch");
    keys::GenSpec gs;
    gs.n_total = n_total;
    gs.global_begin = homes.begin_of(r);
    gs.rank = r;
    gs.nprocs = nprocs;
    gs.radix_bits = radix_bits;
    gs.seed = seed;
    keys::generate(dist, out, gs);
    total = combine(total, checksum_of(out));
  }
  return total;
}

/// The slot holding the requested input — as is on a hit, regenerated in
/// place on a miss — or nullptr when the input is too large to cache.
/// Every request that is not a hit counts as a miss.
const Slot* fill_slot(keys::Dist dist, Index n_total, int nprocs,
                      int radix_bits, std::uint64_t seed,
                      const sas::HomeMap& homes) {
  Slot& slot = tl_slot;
  if (n_total * sizeof(Key) > slot.budget / 2) {
    ++slot.stats.misses;
    return nullptr;
  }
  const CacheKey key{dist, n_total, seed,
                     partition_dependent(dist) ? nprocs : 1,
                     radix_dependent(dist) ? radix_bits : 0};
  if (slot.key == key) {
    ++slot.stats.hits;
    return &slot;
  }
  ++slot.stats.misses;
  if (slot.key.has_value()) ++slot.stats.evictions;
  slot.key.reset();  // holds nothing until generation completes
  const std::span<Key> all = scratch_span(slot.storage, n_total);
  slot.sum = generate_into(
      dist, n_total, nprocs, radix_bits, seed, homes, [&](int r) {
        return all.subspan(homes.begin_of(r), homes.count_of(r));
      });
  slot.key = key;
  return &slot;
}

}  // namespace

void input_cache_set_budget(std::uint64_t bytes) {
  tl_slot.budget = bytes;
  if (tl_slot.storage.size() * sizeof(Key) > bytes) tl_slot.release();
}

std::uint64_t input_cache_budget() { return tl_slot.budget; }

void input_cache_clear() {
  tl_slot.release();
  tl_slot.stats = InputCacheStats{};
}

InputCacheStats input_cache_stats() {
  InputCacheStats s = tl_slot.stats;
  if (tl_slot.key.has_value()) {
    s.entries = 1;
    s.bytes = tl_slot.key->n_total * sizeof(Key);
  }
  return s;
}

Checksum generate_partitions_cached(
    keys::Dist dist, Index n_total, int nprocs, int radix_bits,
    std::uint64_t seed, const sas::HomeMap& homes,
    const std::function<std::span<Key>(int)>& part) {
  DSM_REQUIRE(homes.size() == n_total && homes.nprocs() == nprocs,
              "home map must match the requested data set");
  const Slot* slot = fill_slot(dist, n_total, nprocs, radix_bits, seed, homes);
  if (slot == nullptr) {
    return generate_into(dist, n_total, nprocs, radix_bits, seed, homes,
                         part);
  }
  // Copy the partitions out. The checksum is a multiset fingerprint, so
  // it is independent of which partitioning generated the slot.
  for (int r = 0; r < nprocs; ++r) {
    const std::span<Key> out = part(r);
    DSM_CHECK(out.size() == homes.count_of(r), "partition size mismatch");
    if (out.empty()) continue;
    std::memcpy(out.data(), slot->storage.data() + homes.begin_of(r),
                out.size() * sizeof(Key));
  }
  return slot->sum;
}

Checksum input_checksum_cached(keys::Dist dist, Index n_total, int nprocs,
                               int radix_bits, std::uint64_t seed) {
  const sas::HomeMap homes(n_total, nprocs);
  if (const Slot* slot =
          fill_slot(dist, n_total, nprocs, radix_bits, seed, homes)) {
    return slot->sum;
  }
  // Too large to cache: one rank-sized buffer serves every rank in turn
  // (rank 0's partition is the largest).
  ScratchVector<Key> buf(homes.count_of(0));
  return generate_into(dist, n_total, nprocs, radix_bits, seed, homes,
                       [&](int r) {
                         return std::span<Key>(buf).first(homes.count_of(r));
                       });
}

}  // namespace dsm::sort
