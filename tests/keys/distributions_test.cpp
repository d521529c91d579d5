#include "keys/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dsm::keys {
namespace {

std::vector<Key> gen(Dist d, Index n, int rank, int nprocs, int radix = 8,
                     std::uint64_t seed = 1) {
  const Index per = n / static_cast<Index>(nprocs);
  std::vector<Key> out(per);
  GenSpec spec;
  spec.n_total = n;
  spec.global_begin = per * static_cast<Index>(rank);
  spec.rank = rank;
  spec.nprocs = nprocs;
  spec.radix_bits = radix;
  spec.seed = seed;
  generate(d, out, spec);
  return out;
}

TEST(Distributions, AllValuesBelowMax) {
  for (const Dist d : kAllDists) {
    for (int r = 0; r < 4; ++r) {
      for (const Key k : gen(d, 4096, r, 4)) {
        EXPECT_LT(k, kKeyMax) << dist_name(d);
      }
    }
  }
}

TEST(Distributions, DeterministicPerSeed) {
  for (const Dist d : kAllDists) {
    EXPECT_EQ(gen(d, 1024, 1, 4), gen(d, 1024, 1, 4)) << dist_name(d);
  }
}

TEST(Distributions, SeedChangesData) {
  for (const Dist d : {Dist::kRandom, Dist::kBucket, Dist::kStagger,
                       Dist::kRemote, Dist::kLocal}) {
    EXPECT_NE(gen(d, 1024, 0, 2, 8, 1), gen(d, 1024, 0, 2, 8, 99))
        << dist_name(d);
  }
}

TEST(Distributions, GaussPartitionIndependent) {
  // The LCG jump-ahead must make the global stream identical whether
  // generated as 1 partition or 4.
  const auto whole = gen(Dist::kGauss, 4096, 0, 1);
  std::vector<Key> stitched;
  for (int r = 0; r < 4; ++r) {
    const auto part = gen(Dist::kGauss, 4096, r, 4);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(whole, stitched);
}

TEST(Distributions, RandomPartitionIndependent) {
  const auto whole = gen(Dist::kRandom, 4096, 0, 1);
  std::vector<Key> stitched;
  for (int r = 0; r < 4; ++r) {
    const auto part = gen(Dist::kRandom, 4096, r, 4);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(whole, stitched);
}

TEST(Distributions, GaussMeanNearHalfMax) {
  const auto keys = gen(Dist::kGauss, 1 << 16, 0, 1);
  double mean = 0;
  for (const Key k : keys) mean += static_cast<double>(k);
  mean /= static_cast<double>(keys.size());
  // Average of 4 uniforms: mean MAX/2, tight concentration.
  EXPECT_NEAR(mean, static_cast<double>(kKeyMax) / 2,
              static_cast<double>(kKeyMax) * 0.01);
}

TEST(Distributions, GaussConcentratedVsRandom) {
  // Averaging 4 uniforms halves the standard deviation: far fewer extreme
  // keys than the flat random distribution.
  const auto gauss = gen(Dist::kGauss, 1 << 16, 0, 1);
  const auto flat = gen(Dist::kRandom, 1 << 16, 0, 1);
  auto tail = [](const std::vector<Key>& v) {
    std::size_t c = 0;
    for (const Key k : v) c += (k < kKeyMax / 8) ? 1 : 0;
    return c;
  };
  EXPECT_LT(tail(gauss), tail(flat) / 4);
}

TEST(Distributions, ZeroHasEveryTenthZero) {
  const auto keys = gen(Dist::kZero, 1000, 0, 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 10 == 0) {
      EXPECT_EQ(keys[i], 0u) << i;
    }
  }
  // And plenty of nonzero elsewhere.
  EXPECT_GT(std::accumulate(keys.begin(), keys.end(), std::uint64_t{0}), 0u);
}

TEST(Distributions, ZeroRespectsGlobalIndexAcrossPartitions) {
  // Partition 1 of 4 with 1000 total: global indices 250..499; zeros at
  // global multiples of 10 -> local indices 0, 10, 20...
  const auto keys = gen(Dist::kZero, 1000, 1, 4);
  EXPECT_EQ(keys[0], 0u);   // global 250
  EXPECT_NE(keys[5], 0u);
  EXPECT_EQ(keys[10], 0u);  // global 260
}

TEST(Distributions, HalfAllEven) {
  for (const Key k : gen(Dist::kHalf, 4096, 1, 4)) {
    EXPECT_EQ(k % 2, 0u);
  }
}

TEST(Distributions, HalfIsGaussWithLowBitCleared) {
  const auto g = gen(Dist::kGauss, 1024, 2, 4);
  const auto h = gen(Dist::kHalf, 1024, 2, 4);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(h[i], g[i] & ~Key{1});
  }
}

TEST(Distributions, BucketCyclesThroughRanges) {
  const int p = 4;
  const Index n = 1 << 12;
  const std::uint64_t range = kKeyMax / p;
  const Index per = n / p;          // keys per proc
  const Index block = per / p;      // n / p^2
  const auto keys = gen(Dist::kBucket, n, 2, p);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t slot = (i / block) % p;
    EXPECT_GE(keys[i], slot * range) << i;
    EXPECT_LT(keys[i], (slot + 1) * range) << i;
  }
}

TEST(Distributions, StaggerRangesPerRank) {
  const int p = 8;
  const std::uint64_t range = kKeyMax / p;
  for (int i = 0; i < p; ++i) {
    const std::uint64_t slot =
        static_cast<std::uint64_t>(i) < static_cast<std::uint64_t>(p) / 2
            ? (2 * static_cast<std::uint64_t>(i) + 1) % p
            : (2 * static_cast<std::uint64_t>(i) - p) % p;
    for (const Key k : gen(Dist::kStagger, 1 << 12, i, p)) {
      EXPECT_GE(k, slot * range);
      EXPECT_LT(k, (slot + 1) * range);
    }
  }
}

TEST(Distributions, StaggerCoversAllRangesAcrossRanks) {
  const int p = 8;
  const std::uint64_t range = kKeyMax / p;
  std::vector<bool> covered(p, false);
  for (int i = 0; i < p; ++i) {
    const auto keys = gen(Dist::kStagger, 1 << 9, i, p);
    covered[static_cast<std::size_t>(keys[0] / range)] = true;
  }
  for (int s = 0; s < p; ++s) EXPECT_TRUE(covered[s]) << s;
}

TEST(Distributions, LocalFirstDigitInOwnRange) {
  const int p = 4, r = 8;
  const std::uint64_t digits = 1u << r;
  for (int i = 0; i < p; ++i) {
    const std::uint64_t lo = static_cast<std::uint64_t>(i) * digits / p;
    const std::uint64_t hi = static_cast<std::uint64_t>(i + 1) * digits / p;
    for (const Key k : gen(Dist::kLocal, 1 << 12, i, p, r)) {
      const auto d0 = radix_digit(k, 0, r);
      EXPECT_GE(d0, lo);
      EXPECT_LT(d0, hi);
    }
  }
}

TEST(Distributions, LocalDigitsRepeat) {
  const int p = 4, r = 8;
  for (const Key k : gen(Dist::kLocal, 1 << 10, 2, p, r)) {
    const auto d0 = radix_digit(k, 0, r);
    const auto d1 = radix_digit(k, 1, r);
    const auto d2 = radix_digit(k, 2, r);
    EXPECT_EQ(d1, d0);
    EXPECT_EQ(d2, d0);
  }
}

TEST(Distributions, RemoteEvenDigitsAvoidOwnRange) {
  const int p = 4, r = 8;
  const std::uint64_t digits = 1u << r;
  for (int i = 0; i < p; ++i) {
    const std::uint64_t lo = static_cast<std::uint64_t>(i) * digits / p;
    const std::uint64_t hi = static_cast<std::uint64_t>(i + 1) * digits / p;
    for (const Key k : gen(Dist::kRemote, 1 << 11, i, p, r)) {
      const auto d0 = radix_digit(k, 0, r);
      EXPECT_TRUE(d0 < lo || d0 >= hi) << "rank " << i;       // moves away
      const auto d1 = radix_digit(k, 1, r);
      EXPECT_GE(d1, lo);                                      // comes home
      EXPECT_LT(d1, hi);
      EXPECT_EQ(radix_digit(k, 2, r), d0);                    // repeats
    }
  }
}

TEST(Distributions, RemoteNeedsEnoughDigits) {
  std::vector<Key> out(16);
  GenSpec spec;
  spec.n_total = 64;
  spec.rank = 0;
  spec.nprocs = 8;
  spec.radix_bits = 2;  // 2^2 < 8 procs
  EXPECT_THROW(generate(Dist::kRemote, out, spec), Error);
}

TEST(Distributions, NamesRoundTrip) {
  for (const Dist d : kAllDists) {
    EXPECT_EQ(try_dist_from_name(dist_name(d)).value(), d);
  }
  for (const Dist d : kSkewDists) {
    EXPECT_EQ(try_dist_from_name(dist_name(d)).value(), d);
  }
  EXPECT_FALSE(try_dist_from_name("nope").ok());
}

TEST(Distributions, TypedParseReportsAcceptedNames) {
  const Result<Dist> r = try_dist_from_name("zipfian");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The error must quote the bad name and list every registry name —
  // paper set and skew set alike.
  EXPECT_NE(r.status().message().find("'zipfian'"), std::string::npos);
  EXPECT_NE(r.status().message().find("zipf"), std::string::npos);
  EXPECT_NE(r.status().message().find("almost-sorted"), std::string::npos);
  EXPECT_EQ(try_dist_from_name("adversarial").value(), Dist::kAdversarial);
}

TEST(SkewDistributions, PaperSetIsUntouched) {
  // Figure sweeps and the default service load mix iterate kAllDists;
  // the skew axis must never leak into it (historical outputs are
  // byte-identical only if the paper set stays exactly the §3.3 eight).
  EXPECT_EQ(std::size(kAllDists), 8u);
  EXPECT_EQ(std::size(kSkewDists), 4u);
  for (const Dist s : kSkewDists) {
    for (const Dist d : kAllDists) EXPECT_NE(s, d);
  }
}

TEST(SkewDistributions, DeterministicAndBelowMax) {
  for (const Dist d : kSkewDists) {
    EXPECT_EQ(gen(d, 1024, 1, 4), gen(d, 1024, 1, 4)) << dist_name(d);
    for (int r = 0; r < 4; ++r) {
      for (const Key k : gen(d, 4096, r, 4)) {
        EXPECT_LT(k, kKeyMax) << dist_name(d);
      }
    }
  }
}

TEST(SkewDistributions, PartitionIndependent) {
  // All four are stateless per global index: the global stream must be
  // identical whether generated as 1 partition or 4 — the property that
  // lets the sequential baseline check any parallel run.
  for (const Dist d : kSkewDists) {
    const auto whole = gen(d, 4096, 0, 1);
    std::vector<Key> stitched;
    for (int r = 0; r < 4; ++r) {
      const auto part = gen(d, 4096, r, 4);
      stitched.insert(stitched.end(), part.begin(), part.end());
    }
    EXPECT_EQ(whole, stitched) << dist_name(d);
  }
}

TEST(SkewDistributions, SeedChangesData) {
  for (const Dist d : kSkewDists) {
    EXPECT_NE(gen(d, 1024, 0, 2, 8, 1), gen(d, 1024, 0, 2, 8, 99))
        << dist_name(d);
  }
}

std::map<Key, std::size_t> frequency(const std::vector<Key>& keys) {
  std::map<Key, std::size_t> freq;
  for (const Key k : keys) ++freq[k];
  return freq;
}

TEST(SkewDistributions, ZipfConcentratesOnHotSet) {
  const auto keys = gen(Dist::kZipf, 1 << 15, 0, 1);
  const auto freq = frequency(keys);
  // At most the 1024-value hot set is ever drawn.
  EXPECT_LE(freq.size(), 1024u);
  // Rank 0 of a Zipf(1) hot set of 1024 carries ~ln(2)/ln(1025) ~ 10% of
  // the keys; the heaviest value must clearly dominate a uniform share.
  std::size_t top = 0;
  for (const auto& [k, c] : freq) top = std::max(top, c);
  EXPECT_GT(top, keys.size() / 20);   // > 5% in one value
  EXPECT_GT(freq.size(), 100u);       // but it is not single-valued
}

TEST(SkewDistributions, DupHasSmallDomain) {
  const auto keys = gen(Dist::kDup, 1 << 14, 0, 1);
  const auto freq = frequency(keys);
  EXPECT_LE(freq.size(), 64u);
  EXPECT_GT(freq.size(), 32u);  // roughly uniform over the 64-value domain
}

TEST(SkewDistributions, AlmostSortedIsMostlyAscending) {
  const auto keys = gen(Dist::kAlmostSorted, 1 << 14, 0, 1);
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    inversions += keys[i - 1] > keys[i] ? 1 : 0;
  }
  // ~1/64 positions are displaced; each causes at most 2 adjacent
  // inversions, so the rate stays well under 1/16.
  EXPECT_LT(inversions, keys.size() / 16);
  EXPECT_GT(inversions, 0u);  // but it is not fully sorted
}

TEST(SkewDistributions, AdversarialIsNearlyAllOneValue) {
  const auto keys = gen(Dist::kAdversarial, 1 << 14, 0, 1);
  const auto freq = frequency(keys);
  std::size_t top = 0;
  for (const auto& [k, c] : freq) top = std::max(top, c);
  // ~15/16 of keys are the hot value; the rest share its high bytes.
  EXPECT_GT(top, keys.size() * 8 / 10);
  EXPECT_LE(freq.size(), 257u);  // hot value + at most a byte of variants
  const Key hot_high = [&] {
    for (const auto& [k, c] : freq) {
      if (c == top) return k & ~Key{0xff};
    }
    return Key{0};
  }();
  for (const auto& [k, c] : freq) {
    EXPECT_EQ(k & ~Key{0xff}, hot_high) << std::hex << k;
  }
}

TEST(Distributions, BadSpecsRejected) {
  std::vector<Key> out(10);
  GenSpec spec;
  spec.n_total = 5;  // partition exceeds total
  EXPECT_THROW(generate(Dist::kRandom, out, spec), Error);
}

}  // namespace
}  // namespace dsm::keys
