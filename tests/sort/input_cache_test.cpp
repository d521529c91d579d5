// Input cache: a cache hit must hand out exactly the bytes (and checksum)
// that direct generation would have produced — for every distribution,
// including the partition- and radix-dependent ones, and for partitionings
// the cached input was not generated under. The slot contract: it holds
// the most recent cacheable input per thread and reuses its storage.
#include "sort/input_cache.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

namespace dsm::sort {
namespace {

struct Generated {
  std::vector<Key> keys;
  Checksum sum;
};

// Generate via the cache on a fresh thread, so the thread-local cache
// starts cold and this call is plain direct generation.
Generated generate_cold(keys::Dist dist, Index n, int nprocs, int radix_bits,
                        std::uint64_t seed) {
  Generated g;
  std::thread worker([&] {
    const sas::HomeMap homes(n, nprocs);
    g.keys.resize(n);
    g.sum = generate_partitions_cached(
        dist, n, nprocs, radix_bits, seed, homes, [&](int r) {
          return std::span<Key>(g.keys).subspan(homes.begin_of(r),
                                                homes.count_of(r));
        });
  });
  worker.join();
  return g;
}

Generated generate_warm(keys::Dist dist, Index n, int nprocs, int radix_bits,
                        std::uint64_t seed) {
  const sas::HomeMap homes(n, nprocs);
  Generated g;
  g.keys.resize(n);
  g.sum = generate_partitions_cached(
      dist, n, nprocs, radix_bits, seed, homes, [&](int r) {
        return std::span<Key>(g.keys).subspan(homes.begin_of(r),
                                              homes.count_of(r));
      });
  return g;
}

TEST(InputCache, HitMatchesDirectGenerationForEveryDist) {
  const Index n = 1 << 14;
  for (const keys::Dist dist : keys::kAllDists) {
    const Generated direct = generate_cold(dist, n, 8, 8, 42);
    // Prime this thread's cache, then read it back.
    (void)generate_warm(dist, n, 8, 8, 42);
    const Generated hit = generate_warm(dist, n, 8, 8, 42);
    EXPECT_EQ(hit.keys, direct.keys) << keys::dist_name(dist);
    EXPECT_EQ(hit.sum, direct.sum) << keys::dist_name(dist);
  }
}

TEST(InputCache, PartitionInvariantDistsShareOneEntryAcrossTeamSizes) {
  const Index n = 10000;  // uneven partitions on purpose
  for (const keys::Dist dist :
       {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kHalf}) {
    // Prime with p=16, then serve p=1 (the sequential baseline's shape)
    // and p=7 from the same entry: the global stream must not change.
    const Generated p16 = generate_warm(dist, n, 16, 8, 3);
    const Generated p1 = generate_warm(dist, n, 1, 8, 3);
    const Generated p7 = generate_warm(dist, n, 7, 8, 3);
    EXPECT_EQ(p1.keys, p16.keys) << keys::dist_name(dist);
    EXPECT_EQ(p7.keys, p16.keys) << keys::dist_name(dist);
    EXPECT_EQ(p1.sum, p16.sum) << keys::dist_name(dist);
    // And all of it must equal cold direct generation at p=1.
    const Generated direct = generate_cold(dist, n, 1, 8, 3);
    EXPECT_EQ(p1.keys, direct.keys) << keys::dist_name(dist);
  }
}

TEST(InputCache, PartitionDependentDistsDoNotAliasAcrossTeamSizes) {
  const Index n = 1 << 13;
  const Generated p4 = generate_warm(keys::Dist::kBucket, n, 4, 8, 5);
  const Generated p8 = generate_warm(keys::Dist::kBucket, n, 8, 8, 5);
  const Generated p4_direct = generate_cold(keys::Dist::kBucket, n, 4, 8, 5);
  const Generated p8_direct = generate_cold(keys::Dist::kBucket, n, 8, 8, 5);
  EXPECT_EQ(p4.keys, p4_direct.keys);
  EXPECT_EQ(p8.keys, p8_direct.keys);
  EXPECT_NE(p4.keys, p8.keys);  // bucket layout genuinely depends on p
}

TEST(InputCache, SeedsAndSizesDoNotCollide) {
  const Index n = 1 << 12;
  const Generated s1 = generate_warm(keys::Dist::kRandom, n, 4, 8, 1);
  const Generated s2 = generate_warm(keys::Dist::kRandom, n, 4, 8, 2);
  EXPECT_NE(s1.keys, s2.keys);
  const Generated again = generate_warm(keys::Dist::kRandom, n, 4, 8, 1);
  EXPECT_EQ(again.keys, s1.keys);
}

// Run `body` on a fresh thread: its thread-local cache starts empty and
// budget/stat assertions cannot leak into other tests.
void on_fresh_cache(const std::function<void()>& body) {
  std::thread worker(body);
  worker.join();
}

TEST(InputCache, MostRecentInputHitsAndADifferentKeyReplacesIt) {
  on_fresh_cache([] {
    const Index n = 1 << 12;
    (void)generate_warm(keys::Dist::kRandom, n, 4, 8, 1);  // A
    (void)generate_warm(keys::Dist::kRandom, n, 4, 8, 1);  // A hits
    EXPECT_EQ(input_cache_stats().hits, 1u);
    (void)generate_warm(keys::Dist::kRandom, n, 4, 8, 2);  // B replaces A
    InputCacheStats s = input_cache_stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.bytes, n * sizeof(Key));
    // A is gone: asking for it again is a miss that replaces B.
    (void)generate_warm(keys::Dist::kRandom, n, 4, 8, 1);
    s = input_cache_stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_LE(s.entries, 1u);
  });
}

TEST(InputCache, BudgetBelowTheHeldInputDropsIt) {
  on_fresh_cache([] {
    const Index n = 1 << 12;
    (void)generate_warm(keys::Dist::kRandom, n, 4, 8, 1);
    EXPECT_EQ(input_cache_stats().entries, 1u);
    input_cache_set_budget(n * sizeof(Key));  // still holds it exactly
    EXPECT_EQ(input_cache_stats().entries, 1u);
    input_cache_set_budget(n * sizeof(Key) - 1);
    const InputCacheStats s = input_cache_stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.evictions, 1u);
  });
}

// The service's traffic: every job has its own seed, and its primary run
// and audit ask for its input back to back.
TEST(InputCache, ServiceTrafficHitsEveryRepeatAndHoldsOneInput) {
  on_fresh_cache([] {
    const Index sizes[] = {Index{1} << 10, Index{1} << 12, Index{3} << 10};
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const Index n = sizes[seed % 3];
      const keys::Dist dist = keys::kAllDists[seed % 8];
      const Generated primary = generate_warm(dist, n, 16, 8, seed);
      const Generated audit = generate_warm(dist, n, 16, 8, seed);
      EXPECT_EQ(audit.keys, primary.keys) << seed;
      EXPECT_EQ(audit.sum, primary.sum) << seed;
      EXPECT_LE(input_cache_stats().bytes, (Index{1} << 12) * sizeof(Key));
    }
    const InputCacheStats s = input_cache_stats();
    EXPECT_EQ(s.hits, 50u);
    EXPECT_EQ(s.misses, 50u);
    EXPECT_EQ(s.entries, 1u);
  });
}

// The slot's storage keeps the larger input's tail when a smaller one is
// generated into it; neither that tail nor the stale prefix may leak.
TEST(InputCache, ReusedStorageMatchesDirectGeneration) {
  const Index big = 1 << 14;
  const Index small = 1000;
  const Generated big1 = generate_cold(keys::Dist::kRandom, big, 8, 8, 1);
  const Generated small2 = generate_cold(keys::Dist::kStagger, small, 8, 8, 2);
  const Generated big3 = generate_cold(keys::Dist::kGauss, big, 8, 8, 3);
  on_fresh_cache([&] {
    EXPECT_EQ(generate_warm(keys::Dist::kRandom, big, 8, 8, 1).keys,
              big1.keys);
    const Generated s2 = generate_warm(keys::Dist::kStagger, small, 8, 8, 2);
    EXPECT_EQ(s2.keys, small2.keys);
    EXPECT_EQ(s2.sum, small2.sum);
    const Generated b3 = generate_warm(keys::Dist::kGauss, big, 8, 8, 3);
    EXPECT_EQ(b3.keys, big3.keys);
    EXPECT_EQ(b3.sum, big3.sum);
    EXPECT_EQ(input_cache_stats().hits, 0u);
  });
}

TEST(InputCache, ChecksumOnlyRequestsShareTheSlot) {
  const Index n = 10000;  // uneven partitions on purpose
  const Generated direct = generate_cold(keys::Dist::kBucket, n, 7, 8, 9);
  on_fresh_cache([&] {
    EXPECT_EQ(input_checksum_cached(keys::Dist::kBucket, n, 7, 8, 9),
              direct.sum);
    const Generated hit = generate_warm(keys::Dist::kBucket, n, 7, 8, 9);
    EXPECT_EQ(hit.keys, direct.keys);
    EXPECT_EQ(input_checksum_cached(keys::Dist::kBucket, n, 7, 8, 9),
              direct.sum);
    const InputCacheStats s = input_cache_stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
  });
  on_fresh_cache([&] {
    input_cache_set_budget(0);  // the uncached path must agree too
    EXPECT_EQ(input_checksum_cached(keys::Dist::kBucket, n, 7, 8, 9),
              direct.sum);
    EXPECT_EQ(input_cache_stats().entries, 0u);
  });
}

// Each thread owns its slot: concurrent requests for different inputs
// neither see nor evict each other's (run under the tsan. tier too).
TEST(InputCache, ConcurrentThreadsKeepSeparateSlots) {
  const Index n = 1 << 12;
  std::vector<Generated> direct;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    direct.push_back(generate_cold(keys::Dist::kRandom, n, 4, 8, seed));
  }
  std::vector<InputCacheStats> stats(4);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const Generated g = generate_warm(keys::Dist::kRandom, n, 4, 8, t + 1);
        mismatches[t] += g.keys != direct[t].keys || !(g.sum == direct[t].sum);
      }
      stats[t] = input_cache_stats();
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[t], 0) << t;
    EXPECT_EQ(stats[t].misses, 1u) << t;
    EXPECT_EQ(stats[t].hits, 19u) << t;
    EXPECT_EQ(stats[t].evictions, 0u) << t;
  }
}

TEST(InputCache, OversizeInputsBypassTheCacheButStayCorrect) {
  on_fresh_cache([] {
    const Index n = 1 << 12;
    input_cache_set_budget(n * sizeof(Key));  // entry > budget/2: bypass
    const Generated a = generate_warm(keys::Dist::kRandom, n, 4, 8, 1);
    const Generated b = generate_warm(keys::Dist::kRandom, n, 4, 8, 1);
    EXPECT_EQ(a.keys, b.keys);
    EXPECT_EQ(a.sum, b.sum);
    const InputCacheStats s = input_cache_stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 2u);
  });
}

TEST(InputCache, ZeroBudgetDisablesCachingEntirely) {
  on_fresh_cache([] {
    input_cache_set_budget(0);
    const Index n = 1 << 10;
    const Generated a = generate_warm(keys::Dist::kGauss, n, 4, 8, 7);
    const Generated b = generate_warm(keys::Dist::kGauss, n, 4, 8, 7);
    EXPECT_EQ(a.keys, b.keys);
    EXPECT_EQ(input_cache_stats().entries, 0u);
    EXPECT_EQ(input_cache_stats().hits, 0u);
  });
}

TEST(InputCache, ClearDropsEntriesAndStatsButKeepsTheBudget) {
  on_fresh_cache([] {
    const std::uint64_t budget = std::uint64_t{1} << 20;
    input_cache_set_budget(budget);
    (void)generate_warm(keys::Dist::kRandom, 1 << 12, 4, 8, 1);
    (void)generate_warm(keys::Dist::kRandom, 1 << 12, 4, 8, 1);
    EXPECT_EQ(input_cache_stats().hits, 1u);
    input_cache_clear();
    const InputCacheStats s = input_cache_stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(input_cache_budget(), budget);
  });
}

TEST(InputCache, DefaultBudgetMatchesTheDocumentedConstant) {
  on_fresh_cache([] {
    EXPECT_EQ(input_cache_budget(), kInputCacheDefaultBudget);
  });
}

}  // namespace
}  // namespace dsm::sort
