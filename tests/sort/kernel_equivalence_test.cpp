// Backend equivalence at the kernel layer (no simulator): the optimized
// backend must produce byte-identical sorted output, histograms, measured
// run counts, and final cursors for every input the reference handles.
// This file deliberately depends only on sort/kernels.hpp and the key
// generators, so the TSan tier can rebuild it from source with a small
// closure (kernels.cpp + distributions.cpp + prng.cpp).
#include "sort/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "keys/distributions.hpp"
#include "keys/record.hpp"

namespace dsm::sort {
namespace {

std::vector<Key> make_keys(keys::Dist d, Index n, std::uint64_t seed,
                           int radix = 8) {
  std::vector<Key> out(n);
  keys::GenSpec spec;
  spec.n_total = n;
  spec.nprocs = 1;
  spec.radix_bits = radix;
  spec.seed = seed;
  keys::generate(d, out, spec);
  return out;
}

/// Keys drawn from a four-value set — a duplicate-heavy distribution the
/// stock generators don't produce.
std::vector<Key> duplicate_heavy(Index n, std::uint64_t seed) {
  static constexpr Key kVals[] = {7u, 42u, 1u << 20, (1u << 30) + 5};
  std::vector<Key> out(n);
  std::uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& k : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    k = kVals[(x >> 33) & 3];
  }
  return out;
}

int passes_for(int radix_bits) {
  int p = 0;
  for (std::uint64_t b = 0; b < kKeyBits;
       b += static_cast<std::uint64_t>(radix_bits)) {
    ++p;
  }
  return p;
}

/// Full LSD sort driven through the kernel layer only (what seq_radix_sort
/// does, without the simulator dependency).
std::vector<Key> sort_via_kernels(KernelBackend be, std::vector<Key> keys,
                                  int radix_bits, RadixWorkspace& ws) {
  const int passes = passes_for(radix_bits);
  const std::size_t buckets = std::size_t{1} << radix_bits;
  std::vector<Key> tmp(keys.size());
  ws.prepare(radix_bits, passes);
  std::vector<std::uint64_t> hist(buckets), cursor(buckets);
  Key* in = keys.data();
  Key* out = tmp.data();
  for (int pass = 0; pass < passes; ++pass) {
    const std::span<const Key> in_span(in, keys.size());
    const std::uint64_t active =
        histogram_kernel(be, in_span, pass, radix_bits, hist);
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      cursor[b] = acc;
      acc += hist[b];
    }
    (void)permute_kernel(be, in_span, std::span<Key>(out, keys.size()), pass,
                         radix_bits, cursor, active, ws);
    std::swap(in, out);
  }
  if (in != keys.data()) std::copy_n(in, keys.size(), keys.data());
  return keys;
}

TEST(KernelBackendNames, RoundTrip) {
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kReference), "reference");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kOptimized), "optimized");
}

TEST(MultiHistogram, MatchesReferencePerPassHistograms) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const int radix : {4, 8, 11, 16}) {
      const auto keys = make_keys(keys::Dist::kRandom, 20000, seed, radix);
      const int passes = passes_for(radix);
      const std::size_t buckets = std::size_t{1} << radix;
      std::vector<std::uint64_t> ref(static_cast<std::size_t>(passes) *
                                     buckets);
      std::vector<std::uint64_t> opt(ref.size());
      multi_histogram_kernel(KernelBackend::kReference, keys, passes, radix,
                             ref);
      multi_histogram_kernel(KernelBackend::kOptimized, keys, passes, radix,
                             opt);
      EXPECT_EQ(ref, opt) << "seed=" << seed << " radix=" << radix;
    }
  }
}

TEST(MultiHistogram, GenericUnrollAgreesAtFivePasses) {
  // radix 7 -> 5 passes exercises the non-unrolled loop.
  const auto keys = make_keys(keys::Dist::kGauss, 8192, 9, 7);
  const std::size_t buckets = 128;
  std::vector<std::uint64_t> ref(5 * buckets), opt(5 * buckets);
  multi_histogram_kernel(KernelBackend::kReference, keys, 5, 7, ref);
  multi_histogram_kernel(KernelBackend::kOptimized, keys, 5, 7, opt);
  EXPECT_EQ(ref, opt);
}

struct PermuteCase {
  keys::Dist dist;
  Index n;
};

TEST(PermuteKernel, OutputRunsAndCursorsMatchReference) {
  for (const int radix : {4, 8, 11, 16}) {
    const std::size_t buckets = std::size_t{1} << radix;
    for (const PermuteCase c :
         {PermuteCase{keys::Dist::kRandom, 30000},
          PermuteCase{keys::Dist::kGauss, 10000},
          PermuteCase{keys::Dist::kZero, 10000},
          PermuteCase{keys::Dist::kLocal, 8192},
          // Fewer keys than buckets (always for radix 11/16 here).
          PermuteCase{keys::Dist::kRandom, 100},
          PermuteCase{keys::Dist::kRandom, 1},
          PermuteCase{keys::Dist::kRandom, 0}}) {
      const auto keys = make_keys(c.dist, c.n, 5, radix);
      for (int pass = 0; pass < passes_for(radix); ++pass) {
        RadixWorkspace ws_ref, ws_opt;
        std::vector<std::uint64_t> hist(buckets);
        const std::uint64_t active =
            histogram_kernel(KernelBackend::kReference, keys, pass, radix,
                             hist);
        std::vector<std::uint64_t> cur_ref(buckets), cur_opt(buckets);
        std::uint64_t acc = 0;
        for (std::size_t b = 0; b < buckets; ++b) {
          cur_ref[b] = acc;
          acc += hist[b];
        }
        cur_opt = cur_ref;
        std::vector<Key> out_ref(c.n, 0xdeadbeef), out_opt(c.n, 0xdeadbeef);
        const std::uint64_t runs_ref =
            permute_kernel(KernelBackend::kReference, keys, out_ref, pass,
                           radix, cur_ref, active, ws_ref);
        const std::uint64_t runs_opt =
            permute_kernel(KernelBackend::kOptimized, keys, out_opt, pass,
                           radix, cur_opt, active, ws_opt);
        EXPECT_EQ(out_ref, out_opt)
            << "radix=" << radix << " pass=" << pass << " n=" << c.n;
        EXPECT_EQ(runs_ref, runs_opt) << "radix=" << radix << " pass=" << pass;
        EXPECT_EQ(cur_ref, cur_opt) << "radix=" << radix << " pass=" << pass;
        // The WC staging invariant: all fill counters zero between calls.
        for (const std::uint32_t f : ws_opt.wc_fill) EXPECT_EQ(f, 0u);
      }
    }
  }
}

TEST(PermuteKernel, SingleDigitInputTakesContiguousPath) {
  // All keys share every digit: active == 1 in each pass, so the
  // optimized permute is one memcpy. Results must still match exactly.
  for (const int radix : {8, 11}) {
    const std::size_t buckets = std::size_t{1} << radix;
    std::vector<Key> keys(5000, 0x12345u);
    std::vector<std::uint64_t> hist(buckets);
    const std::uint64_t active =
        histogram_kernel(KernelBackend::kReference, keys, 0, radix, hist);
    ASSERT_EQ(active, 1u);
    std::vector<std::uint64_t> cur_ref(buckets), cur_opt(buckets);
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      cur_ref[b] = acc;
      acc += hist[b];
    }
    cur_opt = cur_ref;
    RadixWorkspace ws_ref, ws_opt;
    std::vector<Key> out_ref(keys.size()), out_opt(keys.size());
    const auto runs_ref =
        permute_kernel(KernelBackend::kReference, keys, out_ref, 0, radix,
                       cur_ref, active, ws_ref);
    const auto runs_opt =
        permute_kernel(KernelBackend::kOptimized, keys, out_opt, 0, radix,
                       cur_opt, active, ws_opt);
    EXPECT_EQ(out_ref, out_opt);
    EXPECT_EQ(runs_ref, runs_opt);
    EXPECT_EQ(cur_ref, cur_opt);
  }
}

class KernelSortEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(KernelSortEquivalence, SortedOutputByteIdentical) {
  const int radix = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  RadixWorkspace ws_ref, ws_opt;
  for (const keys::Dist d : {keys::Dist::kRandom, keys::Dist::kGauss,
                             keys::Dist::kZero, keys::Dist::kStagger}) {
    for (const Index n : {Index{0}, Index{1}, Index{100}, Index{40000}}) {
      const auto input = make_keys(d, n, seed, radix);
      const auto ref = sort_via_kernels(KernelBackend::kReference, input,
                                        radix, ws_ref);
      const auto opt = sort_via_kernels(KernelBackend::kOptimized, input,
                                        radix, ws_opt);
      EXPECT_EQ(ref, opt) << keys::dist_name(d) << " n=" << n
                          << " radix=" << radix << " seed=" << seed;
      EXPECT_TRUE(std::is_sorted(ref.begin(), ref.end()));
    }
  }
  // Duplicate-heavy and already-sorted inputs.
  for (const Index n : {Index{100}, Index{40000}}) {
    auto dup = duplicate_heavy(n, seed);
    EXPECT_EQ(sort_via_kernels(KernelBackend::kReference, dup, radix, ws_ref),
              sort_via_kernels(KernelBackend::kOptimized, dup, radix, ws_opt));
    std::sort(dup.begin(), dup.end());
    EXPECT_EQ(sort_via_kernels(KernelBackend::kReference, dup, radix, ws_ref),
              sort_via_kernels(KernelBackend::kOptimized, dup, radix, ws_opt));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadixBySeed, KernelSortEquivalence,
    ::testing::Combine(::testing::Values(4, 8, 11, 16),
                       ::testing::Values(1ull, 2ull, 3ull)));

/// RAII restore for the process-wide kernel tunables, so tests can force
/// the two-level / threaded paths at small n without leaking settings.
struct TunableGuard {
  std::size_t staging = kernel_staging_bytes();
  std::size_t wc_min = kernel_wc_min_buckets();
  std::size_t shard_min = kernel_shard_min_keys();
  ~TunableGuard() {
    set_kernel_staging_bytes(staging);
    set_kernel_wc_min_buckets(wc_min);
    set_kernel_shard_min_keys(shard_min);
  }
};

TEST(KernelTunables, SettersValidateAndRoundTrip) {
  TunableGuard guard;
  set_kernel_staging_bytes(0);  // 0 = one-level staging disabled
  EXPECT_EQ(kernel_staging_bytes(), 0u);
  set_kernel_staging_bytes(64 * 1024);
  EXPECT_EQ(kernel_staging_bytes(), 64u * 1024u);
  set_kernel_wc_min_buckets(32);
  EXPECT_EQ(kernel_wc_min_buckets(), 32u);
  EXPECT_THROW(set_kernel_wc_min_buckets(0), Error);
  set_kernel_shard_min_keys(1024);
  EXPECT_EQ(kernel_shard_min_keys(), 1024u);
  EXPECT_THROW(set_kernel_shard_min_keys(0), Error);
}

TEST(KernelShards, RespectsJobsAndShardFloor) {
  TunableGuard guard;
  set_kernel_shard_min_keys(1000);
  EXPECT_EQ(effective_kernel_shards(1, 1u << 20), 1);
  EXPECT_EQ(effective_kernel_shards(4, 1u << 20), 4);
  EXPECT_EQ(effective_kernel_shards(4, 2000), 2);   // floor caps shards
  EXPECT_EQ(effective_kernel_shards(4, 999), 1);    // below one shard
  EXPECT_EQ(effective_kernel_shards(4, 0), 1);
}

TEST(PermuteKernel, TwoLevelScatterMatchesReference) {
  // Shrink the staging cap so radix 11 (2048 buckets = 128 KiB of lines)
  // overflows it and the optimized permute takes the two-level staged
  // scatter; radix 16 exercises the coarse-width clamp at a larger n.
  TunableGuard guard;
  set_kernel_staging_bytes(64 * 1024);
  struct Case {
    int radix;
    Index n;
  };
  // 80000 keys (320 KB) clears the 4x-staging footprint floor at the
  // shrunk cap; 9000 sits below it and must stay on the direct scatter.
  for (const Case c : {Case{11, 80000}, Case{11, 9000}, Case{16, 300000}}) {
    const std::size_t buckets = std::size_t{1} << c.radix;
    for (const keys::Dist d :
         {keys::Dist::kRandom, keys::Dist::kGauss, keys::Dist::kZero}) {
      const auto keys = make_keys(d, c.n, 11, c.radix);
      for (int pass = 0; pass < passes_for(c.radix); ++pass) {
        RadixWorkspace ws_ref, ws_opt;
        std::vector<std::uint64_t> hist(buckets);
        const std::uint64_t active = histogram_kernel(
            KernelBackend::kReference, keys, pass, c.radix, hist);
        std::vector<std::uint64_t> cur_ref(buckets), cur_opt(buckets);
        std::uint64_t acc = 0;
        for (std::size_t b = 0; b < buckets; ++b) {
          cur_ref[b] = acc;
          acc += hist[b];
        }
        cur_opt = cur_ref;
        std::vector<Key> out_ref(c.n, 0xdeadbeef), out_opt(c.n, 0xdeadbeef);
        const std::uint64_t runs_ref =
            permute_kernel(KernelBackend::kReference, keys, out_ref, pass,
                           c.radix, cur_ref, active, ws_ref);
        const std::uint64_t runs_opt =
            permute_kernel(KernelBackend::kOptimized, keys, out_opt, pass,
                           c.radix, cur_opt, active, ws_opt);
        EXPECT_EQ(out_ref, out_opt) << "radix=" << c.radix << " n=" << c.n
                                    << " pass=" << pass
                                    << " dist=" << keys::dist_name(d);
        EXPECT_EQ(runs_ref, runs_opt);
        EXPECT_EQ(cur_ref, cur_opt);
        for (const std::uint32_t f : ws_opt.wc_fill) EXPECT_EQ(f, 0u);
      }
    }
  }
}

TEST(KernelSortEquivalenceTwoLevel, FullSortByteIdentical) {
  TunableGuard guard;
  set_kernel_staging_bytes(64 * 1024);
  RadixWorkspace ws_ref, ws_opt;
  for (const int radix : {11, 16}) {
    for (const std::uint64_t seed : {1ull, 4ull}) {
      const auto input = make_keys(keys::Dist::kRandom, 200000, seed, radix);
      const auto ref =
          sort_via_kernels(KernelBackend::kReference, input, radix, ws_ref);
      const auto opt =
          sort_via_kernels(KernelBackend::kOptimized, input, radix, ws_opt);
      EXPECT_EQ(ref, opt) << "radix=" << radix << " seed=" << seed;
      EXPECT_TRUE(std::is_sorted(opt.begin(), opt.end()));
    }
  }
}

class ThreadedKernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedKernelEquivalence, SortedOutputByteIdenticalAcrossJobs) {
  // Lower the shard floor so jobs in {2, 4} really shard at test sizes;
  // every thread count must produce the serial bytes exactly.
  const int jobs = GetParam();
  TunableGuard guard;
  set_kernel_shard_min_keys(512);
  RadixWorkspace ws_ref, ws_thr;
  ws_thr.jobs = jobs;
  for (const int radix : {4, 8, 11, 16}) {
    for (const keys::Dist d : {keys::Dist::kRandom, keys::Dist::kGauss,
                               keys::Dist::kZero, keys::Dist::kStagger}) {
      // Odd n exercises uneven shard boundaries.
      for (const Index n : {Index{0}, Index{1}, Index{511}, Index{1025},
                            Index{40001}}) {
        const auto input = make_keys(d, n, 7, radix);
        const auto ref = sort_via_kernels(KernelBackend::kReference, input,
                                          radix, ws_ref);
        const auto thr = sort_via_kernels(KernelBackend::kOptimized, input,
                                          radix, ws_thr);
        EXPECT_EQ(ref, thr) << "jobs=" << jobs << " radix=" << radix
                            << " n=" << n << " dist=" << keys::dist_name(d);
      }
    }
  }
  // Duplicate-heavy keys stress the stable-order shard cursors.
  const auto dup = duplicate_heavy(30000, 3);
  EXPECT_EQ(sort_via_kernels(KernelBackend::kReference, dup, 8, ws_ref),
            sort_via_kernels(KernelBackend::kOptimized, dup, 8, ws_thr));
}

INSTANTIATE_TEST_SUITE_P(Jobs, ThreadedKernelEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(ThreadedKernel, RunsHistogramsAndCursorsMatchSerial) {
  TunableGuard guard;
  set_kernel_shard_min_keys(512);
  const int radix = 8;
  const std::size_t buckets = 256;
  const auto keys = make_keys(keys::Dist::kRandom, 30000, 13, radix);
  // ws-aware histogram overload: threaded counts must equal serial.
  RadixWorkspace ws1, ws4;
  ws1.jobs = 1;
  ws4.jobs = 4;
  std::vector<std::uint64_t> h1(buckets), h4(buckets);
  const std::uint64_t a1 = histogram_kernel(KernelBackend::kOptimized, keys,
                                            0, radix, h1, ws1);
  const std::uint64_t a4 = histogram_kernel(KernelBackend::kOptimized, keys,
                                            0, radix, h4, ws4);
  EXPECT_EQ(h1, h4);
  EXPECT_EQ(a1, a4);
  const int passes = passes_for(radix);
  std::vector<std::uint64_t> m1(static_cast<std::size_t>(passes) * buckets);
  std::vector<std::uint64_t> m4(m1.size());
  multi_histogram_kernel(KernelBackend::kOptimized, keys, passes, radix, m1,
                         ws1);
  multi_histogram_kernel(KernelBackend::kOptimized, keys, passes, radix, m4,
                         ws4);
  EXPECT_EQ(m1, m4);
  // Permute: measured runs and final cursors must match the serial kernel.
  std::vector<std::uint64_t> cur1(buckets), cur4(buckets);
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    cur1[b] = acc;
    acc += h1[b];
  }
  cur4 = cur1;
  std::vector<Key> out1(keys.size()), out4(keys.size());
  const std::uint64_t runs1 = permute_kernel(
      KernelBackend::kOptimized, keys, out1, 0, radix, cur1, a1, ws1);
  const std::uint64_t runs4 = permute_kernel(
      KernelBackend::kOptimized, keys, out4, 0, radix, cur4, a4, ws4);
  EXPECT_EQ(out1, out4);
  EXPECT_EQ(runs1, runs4);
  EXPECT_EQ(cur1, cur4);
}

TEST(ExchangeCopy, MatchesMemcpyAtEveryAlignmentAndSize) {
  // The streamed copy peels to 64B alignment and fences; every (offset,
  // length) combination must land the same bytes as memcpy. Footprint
  // above the WC threshold turns the streaming path on.
  std::vector<Key> src(70000), dst_ref(70100), dst_opt(70100);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<Key>(i * 2654435761u);
  }
  for (const std::size_t off : {0u, 1u, 3u, 15u, 16u}) {
    for (const std::size_t n : {0u, 1u, 1023u, 1024u, 4096u, 65536u}) {
      std::fill(dst_ref.begin(), dst_ref.end(), 0u);
      std::fill(dst_opt.begin(), dst_opt.end(), 0u);
      std::memcpy(dst_ref.data() + off, src.data(), n * sizeof(Key));
      exchange_copy(KernelBackend::kOptimized, dst_opt.data() + off,
                    src.data(), n, kWcMinFootprintBytes);
      EXPECT_EQ(dst_ref, dst_opt) << "off=" << off << " n=" << n;
      // Small-footprint and reference calls must stay plain copies too.
      std::fill(dst_opt.begin(), dst_opt.end(), 0u);
      exchange_copy(KernelBackend::kReference, dst_opt.data() + off,
                    src.data(), n, 0);
      EXPECT_EQ(dst_ref, dst_opt) << "off=" << off << " n=" << n;
    }
  }
}

TEST(KernelIsa, NameIsKnown) {
  const std::string isa = kernel_isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "scalar") << isa;
}

TEST(HistogramKernel, VectorizedRemainderTailsMatchReference) {
  // The AVX2 histogram consumes 8 keys per iteration; every remainder
  // 0..15 must agree with the scalar count, as must tiny inputs.
  for (Index n = 0; n <= 17; ++n) {
    const auto keys = make_keys(keys::Dist::kRandom, n, 21, 8);
    std::vector<std::uint64_t> ref(256), opt(256);
    const auto a_ref =
        histogram_kernel(KernelBackend::kReference, keys, 0, 8, ref);
    const auto a_opt =
        histogram_kernel(KernelBackend::kOptimized, keys, 0, 8, opt);
    EXPECT_EQ(ref, opt) << "n=" << n;
    EXPECT_EQ(a_ref, a_opt) << "n=" << n;
  }
  for (const Index n : {Index{8191}, Index{8192}, Index{8201}}) {
    for (const int radix : {8, 11, 16}) {
      const auto keys = make_keys(keys::Dist::kGauss, n, 22, radix);
      const std::size_t buckets = std::size_t{1} << radix;
      std::vector<std::uint64_t> ref(buckets), opt(buckets);
      for (int pass = 0; pass < passes_for(radix); ++pass) {
        (void)histogram_kernel(KernelBackend::kReference, keys, pass, radix,
                               ref);
        (void)histogram_kernel(KernelBackend::kOptimized, keys, pass, radix,
                               opt);
        EXPECT_EQ(ref, opt) << "n=" << n << " radix=" << radix
                            << " pass=" << pass;
      }
    }
  }
}

/// Full LSD sort of a (key, payload) record stream through the kernel
/// layer: the key lane moves through permute_kernel under `be`; the
/// payload lane replays each pass's stable scatter via
/// payload_mirror_scatter from a cursor snapshot taken before the key
/// permute — exactly the structure the sort runners use.
std::pair<std::vector<Key>, std::vector<keys::Payload>>
paired_sort_via_kernels(KernelBackend be, std::vector<Key> keys,
                        int radix_bits, RadixWorkspace& ws) {
  const int passes = passes_for(radix_bits);
  const std::size_t buckets = std::size_t{1} << radix_bits;
  std::vector<Key> tmp(keys.size());
  std::vector<keys::Payload> pay(keys.size()), pay_tmp(keys.size());
  for (std::size_t i = 0; i < pay.size(); ++i) {
    pay[i] = static_cast<keys::Payload>(i);
  }
  ws.prepare(radix_bits, passes);
  std::vector<std::uint64_t> hist(buckets), cursor(buckets),
      snapshot(buckets);
  Key* in = keys.data();
  Key* out = tmp.data();
  keys::Payload* pin = pay.data();
  keys::Payload* pout = pay_tmp.data();
  for (int pass = 0; pass < passes; ++pass) {
    const std::span<const Key> in_span(in, keys.size());
    const std::uint64_t active =
        histogram_kernel(be, in_span, pass, radix_bits, hist);
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      cursor[b] = acc;
      acc += hist[b];
    }
    snapshot = cursor;  // before the key permute consumes it
    (void)permute_kernel(be, in_span, std::span<Key>(out, keys.size()), pass,
                         radix_bits, cursor, active, ws);
    payload_mirror_scatter(in_span,
                           std::span<const keys::Payload>(pin, pay.size()),
                           std::span<keys::Payload>(pout, pay.size()), pass,
                           radix_bits, snapshot);
    std::swap(in, out);
    std::swap(pin, pout);
  }
  if (in != keys.data()) std::copy_n(in, keys.size(), keys.data());
  if (pin != pay.data()) std::copy_n(pin, pay.size(), pay.data());
  return {std::move(keys), std::move(pay)};
}

class PairedKernelSort
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PairedKernelSort, MirrorReplaysTheStableScatterExactly) {
  // Record-type x distribution cells at the kernel layer: for every
  // backend, radix, jobs value, and skewed distribution the payload
  // mirror must land each payload exactly where stable sorting its
  // (key, input index) record would — byte-identical to the header-only
  // record_lsd_sort reference. The key lane must be untouched by the
  // mirroring (identical to the bare-key kernel sort).
  const int radix = std::get<0>(GetParam());
  const int jobs = std::get<1>(GetParam());
  TunableGuard guard;
  set_kernel_shard_min_keys(512);
  RadixWorkspace ws_bare, ws_ref, ws_opt;
  ws_opt.jobs = jobs;
  for (const keys::Dist d :
       {keys::Dist::kRandom, keys::Dist::kZipf, keys::Dist::kDup,
        keys::Dist::kAlmostSorted, keys::Dist::kAdversarial}) {
    for (const Index n : {Index{0}, Index{1}, Index{1025}, Index{30000}}) {
      const auto input = make_keys(d, n, 17, radix);
      // Reference: the generic record sort over (key, index) records.
      std::vector<keys::KeyPayload32> recs(n);
      for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i] = {input[i], static_cast<keys::Payload>(i)};
      }
      std::vector<keys::KeyPayload32> rtmp(n);
      keys::record_lsd_sort<keys::RecordTraits<keys::KeyPayload32>>(
          recs, rtmp, radix);
      const auto bare =
          sort_via_kernels(KernelBackend::kReference, input, radix, ws_bare);
      for (const KernelBackend be :
           {KernelBackend::kReference, KernelBackend::kOptimized}) {
        RadixWorkspace& ws =
            be == KernelBackend::kReference ? ws_ref : ws_opt;
        const auto [ks, ps] = paired_sort_via_kernels(be, input, radix, ws);
        EXPECT_EQ(ks, bare) << kernel_backend_name(be) << " "
                            << keys::dist_name(d) << " n=" << n;
        ASSERT_EQ(ps.size(), recs.size());
        for (std::size_t i = 0; i < recs.size(); ++i) {
          ASSERT_EQ(ks[i], recs[i].key)
              << kernel_backend_name(be) << " " << keys::dist_name(d)
              << " n=" << n << " @" << i;
          ASSERT_EQ(ps[i], recs[i].payload)
              << kernel_backend_name(be) << " " << keys::dist_name(d)
              << " n=" << n << " @" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RadixByJobs, PairedKernelSort,
                         ::testing::Combine(::testing::Values(4, 8, 11),
                                            ::testing::Values(1, 4)));

TEST(PayloadMirror, ConsumesCursorLikePermuteKernel) {
  // The mirror's cursor contract matches permute_kernel's: advanced past
  // every written element, so a caller can sanity-check both lanes moved
  // the same counts.
  const auto keys = make_keys(keys::Dist::kRandom, 5000, 23, 8);
  std::vector<std::uint64_t> hist(256);
  const std::uint64_t active =
      histogram_kernel(KernelBackend::kReference, keys, 0, 8, hist);
  std::vector<std::uint64_t> cur_key(256), cur_pay(256);
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < 256; ++b) {
    cur_key[b] = acc;
    acc += hist[b];
  }
  cur_pay = cur_key;
  RadixWorkspace ws;
  std::vector<Key> out(keys.size());
  std::vector<keys::Payload> pin(keys.size()), pout(keys.size());
  for (std::size_t i = 0; i < pin.size(); ++i) {
    pin[i] = static_cast<keys::Payload>(i);
  }
  (void)permute_kernel(KernelBackend::kReference, keys, out, 0, 8, cur_key,
                       active, ws);
  payload_mirror_scatter(keys, pin, pout, 0, 8, cur_pay);
  EXPECT_EQ(cur_key, cur_pay);
  // Every payload points back at a key equal to its new neighbour.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(keys[pout[i]], out[i]) << i;
  }
}

TEST(KernelThreading, ConcurrentSortsAndBackendSwitches) {
  // TSan target: per-thread tls workspaces must not race while each
  // thread switches backends between its sorts.
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &ok] {
      const auto input =
          make_keys(keys::Dist::kRandom, 20000,
                    static_cast<std::uint64_t>(t) + 1, 8);
      auto expect = input;
      std::sort(expect.begin(), expect.end());
      for (int iter = 0; iter < 5; ++iter) {
        const auto be = (t + iter) % 2 == 0 ? KernelBackend::kReference
                                            : KernelBackend::kOptimized;
        const auto got = sort_via_kernels(be, input, 8, tls_radix_workspace());
        if (got != expect) ok.store(false);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace dsm::sort
