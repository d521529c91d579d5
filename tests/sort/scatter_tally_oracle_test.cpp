// Oracle test for the CC-SAS scatter tallies. `fused_scatter` below is the
// scatter-and-measure loop the non-buffered CC-SAS radix pass ran before
// its keys moved through the shared permute_kernel, copied verbatim from
// radix_ccsas. Two adaptations, neither of which touches a tally: its
// write-combining staging reads test-local buffers in place of the
// workspace's, and `wc_flush` is the plain-copy form (the library's form
// only chose the store instruction). Over seeded random layouts, the
// library path (histogram_runs_kernel, then tally_scatter, then
// permute_kernel) must produce the same output array and the same
// bytes_to / runs_to / local accesses / local runs for every rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/prng.hpp"
#include "keys/distributions.hpp"
#include "sas/shared_array.hpp"
#include "sort/kernels.hpp"
#include "sort/radix_parallel.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

void wc_flush(Key* dst, const Key* src, std::size_t n_keys) {
  std::memcpy(dst, src, n_keys * sizeof(Key));
}

struct OracleTally {
  std::vector<std::uint64_t> bytes_to, runs_to;
  std::uint64_t local_accesses = 0, local_runs = 0;
};

/// The fused loop. `cursor` holds each bucket's first global position
/// (consumed); `out_data` is the whole shared output array.
OracleTally fused_scatter(std::span<const Key> my_keys, int pass, int bits,
                          const sas::HomeMap& homes, int r,
                          std::vector<std::uint64_t> cursor, Key* out_data,
                          bool stage_writes) {
  const int p = homes.nprocs();
  const std::size_t buckets = std::size_t{1} << bits;
  std::vector<int> owner(buckets);
  std::vector<std::uint64_t> owner_end(buckets);
  std::vector<std::uint64_t> bytes_to(static_cast<std::size_t>(p)),
      runs_to(static_cast<std::size_t>(p));
  std::vector<Key> wc_keys(buckets * kWcLineKeys);
  std::vector<std::uint32_t> wc_fill(buckets, 0), wc_need(buckets, 0);

  // Each bucket's write cursor only moves forward, so its home owner
  // advances monotonically too: track it with a boundary compare
  // instead of the integer divide inside owner_of (one divide per key
  // dominates this loop otherwise). Starting every bucket at owner 0
  // costs at most p boundary steps per bucket over the whole pass.
  for (std::size_t b = 0; b < buckets; ++b) {
    owner[b] = 0;
    owner_end[b] = homes.end_of(0);
  }

  Key* wc = nullptr;
  std::uint32_t* wfill = nullptr;
  std::uint32_t* wneed = nullptr;
  if (stage_writes) {
    wc = wc_keys.data();
    wfill = wc_fill.data();
    wneed = wc_need.data();
    // Phase each bucket's first flush to the destination's next
    // 64-byte boundary so later full-line flushes can stream.
    for (std::size_t b = 0; b < buckets; ++b) {
      const auto addr =
          reinterpret_cast<std::uintptr_t>(out_data + cursor[b]);
      const std::size_t off = (addr % 64u) / sizeof(Key);
      wneed[b] = static_cast<std::uint32_t>(
          off == 0 ? kWcLineKeys : kWcLineKeys - off);
    }
  }
  std::uint64_t local_accesses = 0, local_runs = 0;
  std::fill(bytes_to.begin(), bytes_to.end(), 0);
  std::fill(runs_to.begin(), runs_to.end(), 0);
  std::uint32_t prev_digit = ~0u;
  for (const Key k : my_keys) {
    const std::uint32_t d = radix_digit(k, pass, bits);
    const std::uint64_t pos = cursor[d]++;
    if (!stage_writes) {
      out_data[pos] = k;
    } else {
      std::uint32_t f = wfill[d];
      wc[d * kWcLineKeys + f] = k;
      ++f;
      if (f == wneed[d]) {
        wc_flush(out_data + (pos + 1 - f), wc + d * kWcLineKeys, f);
        wneed[d] = kWcLineKeys;
        f = 0;
      }
      wfill[d] = f;
    }
    while (pos >= owner_end[d]) {
      ++owner[d];
      owner_end[d] = homes.end_of(owner[d]);
    }
    const int home = owner[d];
    const bool new_run = d != prev_digit;
    prev_digit = d;
    if (home == r) {
      ++local_accesses;
      local_runs += new_run ? 1 : 0;
    } else {
      bytes_to[static_cast<std::size_t>(home)] += sizeof(Key);
      runs_to[static_cast<std::size_t>(home)] += new_run ? 1 : 0;
    }
  }
  if (stage_writes) {
    // Drain partial lines (restoring the all-zero staging invariant)
    // and fence the streamed stores before the ownership hand-off.
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint32_t f = wfill[b];
      if (f == 0) continue;
      wc_flush(out_data + (cursor[b] - f), wc + b * kWcLineKeys, f);
      wfill[b] = 0;
    }
  }

  return OracleTally{bytes_to, runs_to, local_accesses, local_runs};
}

/// Keys of one case. Beyond the generators: long digit runs (each rank's
/// keys in blocks of one value) and constant keys.
std::vector<Key> make_keys(int shape, Index n, int p, int bits,
                           std::uint64_t seed) {
  std::vector<Key> keys(n);
  constexpr keys::Dist kDists[] = {keys::Dist::kRandom, keys::Dist::kGauss,
                                   keys::Dist::kZero, keys::Dist::kDup,
                                   keys::Dist::kAdversarial,
                                   keys::Dist::kAlmostSorted};
  if (shape < 6) {
    keys::GenSpec g;
    g.n_total = n;
    g.nprocs = p;
    g.radix_bits = bits;
    g.seed = seed;
    keys::generate(kDists[shape], keys, g);
    return keys;
  }
  SplitMix64 rng(seed);
  if (shape == 6) {  // long runs: blocks of up to 1000 equal keys
    std::size_t i = 0;
    while (i < keys.size()) {
      const Key v = static_cast<Key>(rng.next());
      const std::size_t len = 1 + rng.next_below(1000);
      for (std::size_t j = 0; j < len && i < keys.size(); ++j) keys[i++] = v;
    }
    return keys;
  }
  std::fill(keys.begin(), keys.end(), static_cast<Key>(rng.next()));
  return keys;  // shape 7: one value
}

constexpr int kShapes = 8;

void check_case(int p, int bits, Index n, int shape, std::uint64_t seed,
                KernelBackend be, int jobs) {
  const auto keys = make_keys(shape, n, p, bits, seed);
  const sas::HomeMap homes(n, p);
  const std::size_t buckets = std::size_t{1} << bits;
  const int passes = radix_passes(bits);
  const int pass = static_cast<int>(seed % static_cast<std::uint64_t>(passes));
  const std::string what = "p=" + std::to_string(p) + " bits=" +
                           std::to_string(bits) + " n=" + std::to_string(n) +
                           " shape=" + std::to_string(shape) + " pass=" +
                           std::to_string(pass) + " jobs=" +
                           std::to_string(jobs);

  // Every rank's histogram, then CC-SAS's bucket-major, rank-minor slices.
  std::vector<std::vector<std::uint64_t>> hist(
      static_cast<std::size_t>(p), std::vector<std::uint64_t>(buckets));
  std::vector<std::vector<std::uint64_t>> run_starts = hist;
  std::vector<std::uint64_t> active(static_cast<std::size_t>(p));
  RadixWorkspace ws;
  ws.jobs = jobs;
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::span<const Key> mine(keys.data() + homes.begin_of(r),
                                    homes.count_of(r));
    active[rr] = histogram_runs_kernel(be, mine, pass, bits, hist[rr],
                                       run_starts[rr], ws);
    std::vector<std::uint64_t> plain(buckets);
    ASSERT_EQ(histogram_kernel(be, mine, pass, bits, plain), active[rr])
        << what;
    ASSERT_EQ(plain, hist[rr]) << what;
  }
  std::vector<std::vector<std::uint64_t>> first = hist;
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::size_t r = 0; r < hist.size(); ++r) {
      first[r][b] = acc;
      acc += hist[r][b];
    }
  }

  std::vector<Key> want(n), got(n);
  ScatterTally tally;
  TallyScratch scratch;
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::span<const Key> mine(keys.data() + homes.begin_of(r),
                                    homes.count_of(r));
    const OracleTally oracle =
        fused_scatter(mine, pass, bits, homes, r, first[rr], want.data(),
                      (seed & 1) != 0);
    tally_scatter(mine, pass, bits, homes, r, first[rr], hist[rr],
                  run_starts[rr], tally, scratch);
    std::vector<std::uint64_t> cursor = first[rr];
    const std::uint64_t runs = permute_kernel(be, mine, got, pass, bits,
                                              cursor, active[rr], ws);
    std::uint64_t starts = 0;
    for (const std::uint64_t s : run_starts[rr]) starts += s;
    EXPECT_EQ(starts, runs) << what << " rank " << r;
    EXPECT_EQ(oracle.bytes_to, tally.bytes_to) << what << " rank " << r;
    EXPECT_EQ(oracle.runs_to, tally.runs_to) << what << " rank " << r;
    EXPECT_EQ(oracle.local_accesses, tally.local_accesses)
        << what << " rank " << r;
    EXPECT_EQ(oracle.local_runs, tally.local_runs) << what << " rank " << r;
  }
  EXPECT_EQ(want, got) << what;
}

TEST(ScatterTallyOracle, MatchesFusedLoopOnRandomLayouts) {
  SplitMix64 rng(20261018);
  for (const int p : {1, 2, 3, 7, 16, 64}) {
    for (int bits = 1; bits <= 16; ++bits) {
      const auto buckets = Index{1} << bits;
      // n = p, n below the bucket count (2^bits < p makes every slice
      // straddle homes), and a few thousand keys.
      for (const Index n :
           {static_cast<Index>(p), std::max<Index>(1, buckets / 2 + 3),
            Index{4000} + static_cast<Index>(rng.next_below(3000))}) {
        const int shape = static_cast<int>(rng.next_below(kShapes));
        check_case(p, bits, n, shape, rng.next(),
                   rng.next_below(2) == 0 ? KernelBackend::kReference
                                          : KernelBackend::kOptimized,
                   1);
      }
    }
  }
}

TEST(ScatterTallyOracle, EveryShapeAtEveryTeamSize) {
  SplitMix64 rng(77);
  for (const int p : {1, 2, 3, 7, 16, 64}) {
    for (int shape = 0; shape < kShapes; ++shape) {
      for (const int bits : {4, 8, 11}) {
        check_case(p, bits, Index{20000}, shape, rng.next(),
                   KernelBackend::kOptimized, 1);
      }
    }
  }
}

TEST(ScatterTallyOracle, ThreadedHistogramStitchesRunStarts) {
  // Shard the run-counting sweep at small n; shard boundaries inside
  // long runs must not count a run start twice.
  const std::size_t saved = kernel_shard_min_keys();
  set_kernel_shard_min_keys(256);
  SplitMix64 rng(5);
  for (int shape = 0; shape < kShapes; ++shape) {
    for (const int jobs : {2, 3}) {
      check_case(4, 8, Index{30000}, shape, rng.next(),
                 KernelBackend::kOptimized, jobs);
    }
  }
  set_kernel_shard_min_keys(saved);
}

}  // namespace
}  // namespace dsm::sort
