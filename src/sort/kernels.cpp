#include "sort/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <exception>
#include <thread>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dsm::sort {
namespace {

std::atomic<std::size_t>& staging_override() {
  static std::atomic<std::size_t> v{kWcDefaultStagingBytes};
  return v;
}

std::atomic<std::size_t>& wc_min_buckets_override() {
  static std::atomic<std::size_t> v{kWcDefaultMinBuckets};
  return v;
}

std::atomic<std::size_t>& shard_min_keys_override() {
  static std::atomic<std::size_t> v{kDefaultShardMinKeys};
  return v;
}

#if defined(__AVX2__)
bool host_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}
#endif

}  // namespace

const char* kernel_backend_name(KernelBackend b) {
  return enum_name<KernelBackend>(kKernelBackendNames, b);
}

std::size_t kernel_staging_bytes() {
  return staging_override().load(std::memory_order_relaxed);
}

void set_kernel_staging_bytes(std::size_t bytes) {
  staging_override().store(bytes, std::memory_order_relaxed);
}

std::size_t kernel_wc_min_buckets() {
  return wc_min_buckets_override().load(std::memory_order_relaxed);
}

void set_kernel_wc_min_buckets(std::size_t buckets) {
  DSM_REQUIRE(buckets >= 1, "wc min-buckets gate must be >= 1");
  wc_min_buckets_override().store(buckets, std::memory_order_relaxed);
}

std::size_t kernel_shard_min_keys() {
  return shard_min_keys_override().load(std::memory_order_relaxed);
}

void set_kernel_shard_min_keys(std::size_t keys) {
  DSM_REQUIRE(keys >= 1, "shard floor must be >= 1 key");
  shard_min_keys_override().store(keys, std::memory_order_relaxed);
}

int effective_kernel_shards(int jobs, std::size_t n) {
  if (jobs <= 1) return 1;
  const std::size_t floor_keys = kernel_shard_min_keys();
  const std::size_t by_n = n / floor_keys;
  if (by_n <= 1) return 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), by_n));
}

const char* kernel_isa_name() {
#if defined(__AVX2__)
  if (host_avx2()) return "avx2";
#endif
#if defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

void RadixWorkspace::prepare(int radix_bits) {
  DSM_REQUIRE(radix_bits >= 1 && radix_bits <= 20, "radix bits out of range");
  const std::size_t buckets = std::size_t{1} << radix_bits;
  if (hist.size() < buckets) hist.resize(buckets);
}

void RadixWorkspace::prepare(int radix_bits, int passes) {
  prepare(radix_bits);
  DSM_REQUIRE(passes >= 1, "need at least one pass");
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const std::size_t rows = static_cast<std::size_t>(passes) * buckets;
  if (pass_hist.size() < rows) pass_hist.resize(rows);
}

void RadixWorkspace::prepare_staging(int radix_bits) {
  DSM_REQUIRE(radix_bits >= 1 && radix_bits <= 20, "radix bits out of range");
  const std::size_t buckets = std::size_t{1} << radix_bits;
  // One staging line per bucket while that fits the tunable cap; past it
  // the permute switches to the two-level scatter, whose first level
  // needs at most 2^kTwoLevelMaxCoarseBits lines.
  std::size_t lines = buckets;
  if (buckets * kWcLineKeys * sizeof(Key) > kernel_staging_bytes()) {
    lines = std::min(buckets,
                     std::size_t{1} << kTwoLevelMaxCoarseBits);
  }
  if (wc_keys.size() < lines * kWcLineKeys) {
    wc_keys.resize(lines * kWcLineKeys);
    wc_fill.assign(lines, 0);
    wc_need.assign(lines, 0);
  }
}

RadixWorkspace& tls_radix_workspace() {
  thread_local RadixWorkspace ws;
  return ws;
}

std::uint64_t count_active(std::span<const std::uint64_t> hist) {
  std::uint64_t active = 0;
  for (const std::uint64_t c : hist) active += c != 0 ? 1 : 0;
  return active;
}

namespace {

/// Even key-range split for the threaded mode. Shards only exist when
/// n >= 2 * kernel_shard_min_keys(), so every shard is non-empty.
std::size_t shard_begin(std::size_t n, int shards, int t) {
  return n * static_cast<std::size_t>(t) / static_cast<std::size_t>(shards);
}

/// Run fn(0..shards-1) on `shards` host threads (the caller is shard 0)
/// and rethrow the first shard failure after all have joined.
template <typename Fn>
void run_shards(int shards, const Fn& fn) {
  std::vector<std::exception_ptr> errs(static_cast<std::size_t>(shards));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(shards) - 1);
  for (int t = 1; t < shards; ++t) {
    pool.emplace_back([&fn, &errs, t] {
      try {
        fn(t);
      } catch (...) {
        errs[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  try {
    fn(0);
  } catch (...) {
    errs[0] = std::current_exception();
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errs) {
    if (e) std::rethrow_exception(e);
  }
}

#if defined(__AVX2__)
/// Vectorized digit extraction for the counting pass: eight keys shifted
/// and masked at once, then eight scalar increments from the lane
/// buffer (the scattered increment itself cannot be vectorized without
/// conflict detection). Compiled only in the DSMSORT_NATIVE TU and
/// dispatched behind a runtime CPU check; counts are exactly the scalar
/// loop's.
void histogram_span_avx2(const Key* keys, std::size_t n, int shift,
                         std::uint32_t mask, std::uint64_t* hist) {
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m128i vshift = _mm_cvtsi32_si128(shift);
  alignas(32) std::uint32_t d[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    v = _mm256_and_si256(_mm256_srl_epi32(v, vshift), vmask);
    _mm256_store_si256(reinterpret_cast<__m256i*>(d), v);
    ++hist[d[0]];
    ++hist[d[1]];
    ++hist[d[2]];
    ++hist[d[3]];
    ++hist[d[4]];
    ++hist[d[5]];
    ++hist[d[6]];
    ++hist[d[7]];
  }
  for (; i < n; ++i) ++hist[(keys[i] >> shift) & mask];
}
#endif  // __AVX2__

#if defined(__SSE2__)
/// Flush one full 64-byte staging line to an aligned destination with
/// non-temporal stores, via the widest store the build + host offer.
inline void stream_line(Key* dst, const Key* src) {
#if defined(__AVX2__)
  if (host_avx2()) {
    auto* const q = reinterpret_cast<__m256i*>(dst);
    const auto* const s = reinterpret_cast<const __m256i*>(src);
    _mm256_stream_si256(q + 0, _mm256_loadu_si256(s + 0));
    _mm256_stream_si256(q + 1, _mm256_loadu_si256(s + 1));
    return;
  }
#endif
  auto* const q = reinterpret_cast<__m128i*>(dst);
  const auto* const s = reinterpret_cast<const __m128i*>(src);
  _mm_stream_si128(q + 0, _mm_loadu_si128(s + 0));
  _mm_stream_si128(q + 1, _mm_loadu_si128(s + 1));
  _mm_stream_si128(q + 2, _mm_loadu_si128(s + 2));
  _mm_stream_si128(q + 3, _mm_loadu_si128(s + 3));
}
#endif  // __SSE2__

/// The seed permute loop, kept verbatim apart from the hoisted digit: the
/// digit is computed once per key and reused for both the scattered write
/// and the run update (the seed recomputed it when per-element assertions
/// were compiled in).
std::uint64_t permute_reference(std::span<const Key> in, std::span<Key> out,
                                int pass, int radix_bits,
                                std::span<std::uint64_t> cursor) {
  std::uint64_t runs = 0;
  std::uint32_t prev_digit = ~0u;
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = in[i];
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    const std::uint64_t pos = cursor[d]++;
    DSM_DCHECK(pos < out.size(), "permutation writes past the output");
    out[pos] = k;
    runs += d != prev_digit ? 1 : 0;
    prev_digit = d;
  }
  return runs;
}

/// Software write-combining permute: stage each bucket's keys in a
/// cache-line buffer and flush it contiguously when full. This is the
/// paper's CC-SAS-NEW restructuring (locally buffer temporally-scattered
/// writes, then move them as blocks) applied to the host cache hierarchy:
/// instead of keeping 2^r partially-written destination lines live at
/// once, the working set is the 64-byte-per-bucket staging area plus one
/// destination line per flush.
std::uint64_t permute_write_combined(std::span<const Key> in,
                                     std::span<Key> out, int pass,
                                     int radix_bits,
                                     std::span<std::uint64_t> cursor,
                                     RadixWorkspace& ws) {
  const std::size_t buckets = std::size_t{1} << radix_bits;
  DSM_CHECK(ws.wc_keys.size() >= buckets * kWcLineKeys &&
                ws.wc_fill.size() >= buckets,
            "write-combining staging not prepared");
  Key* const wc = ws.wc_keys.data();
  std::uint32_t* const fill = ws.wc_fill.data();
  Key* const out_data = out.data();
  std::uint64_t runs = 0;
  std::uint32_t prev_digit = ~0u;
  for (const Key k : in) {
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    runs += d != prev_digit ? 1 : 0;
    prev_digit = d;
    std::uint32_t f = fill[d];
    wc[d * kWcLineKeys + f] = k;
    if (++f == kWcLineKeys) {
      const std::uint64_t pos = cursor[d];
      DSM_DCHECK(pos + kWcLineKeys <= out.size(),
                 "permutation writes past the output");
      std::memcpy(out_data + pos, wc + d * kWcLineKeys,
                  kWcLineKeys * sizeof(Key));
      cursor[d] = pos + kWcLineKeys;
      f = 0;
    }
    fill[d] = f;
  }
  // Drain partial lines in bucket order, restoring the all-zero staging
  // invariant for the next call.
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t f = fill[b];
    if (f == 0) continue;
    const std::uint64_t pos = cursor[b];
    DSM_DCHECK(pos + f <= out.size(), "permutation writes past the output");
    std::memcpy(out_data + pos, wc + b * kWcLineKeys, f * sizeof(Key));
    cursor[b] = pos + f;
    fill[b] = 0;
  }
  return runs;
}

#if defined(__SSE2__)
/// WC permute variant for DRAM-bound passes: identical staging, but full
/// lines are flushed with non-temporal stores. The destination is
/// write-only until the next pass reads it back, so streaming past the
/// cache saves the read-for-ownership of every destination line (a third
/// of the pass's memory traffic). Each bucket's first flush is shortened
/// to the next 64-byte destination boundary so every streaming flush
/// covers exactly one line — an unaligned flush would straddle two lines
/// and the CPU's fill buffers would evict both as costly partial writes.
std::uint64_t permute_wc_stream(std::span<const Key> in, std::span<Key> out,
                                int pass, int radix_bits,
                                std::span<std::uint64_t> cursor,
                                RadixWorkspace& ws) {
  const std::size_t buckets = std::size_t{1} << radix_bits;
  DSM_CHECK(ws.wc_keys.size() >= buckets * kWcLineKeys &&
                ws.wc_fill.size() >= buckets && ws.wc_need.size() >= buckets,
            "write-combining staging not prepared");
  Key* const wc = ws.wc_keys.data();
  std::uint32_t* const fill = ws.wc_fill.data();
  std::uint32_t* const need = ws.wc_need.data();
  Key* const out_data = out.data();
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto addr = reinterpret_cast<std::uintptr_t>(out_data + cursor[b]);
    const std::size_t off = (addr % 64u) / sizeof(Key);
    need[b] =
        static_cast<std::uint32_t>(off == 0 ? kWcLineKeys : kWcLineKeys - off);
  }
  std::uint64_t runs = 0;
  std::uint32_t prev_digit = ~0u;
  for (const Key k : in) {
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    runs += d != prev_digit ? 1 : 0;
    prev_digit = d;
    std::uint32_t f = fill[d];
    wc[d * kWcLineKeys + f] = k;
    if (++f == need[d]) {
      const std::uint64_t pos = cursor[d];
      DSM_DCHECK(pos + f <= out.size(),
                 "permutation writes past the output");
      Key* const dst = out_data + pos;
      const Key* const src = wc + d * kWcLineKeys;
      if (f == kWcLineKeys) {
        stream_line(dst, src);
      } else {
        // The alignment-phasing flush: ordinary stores, then every later
        // flush of this bucket starts on a line boundary.
        std::memcpy(dst, src, f * sizeof(Key));
        need[d] = kWcLineKeys;
      }
      cursor[d] = pos + f;
      f = 0;
    }
    fill[d] = f;
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t f = fill[b];
    if (f == 0) continue;
    const std::uint64_t pos = cursor[b];
    DSM_DCHECK(pos + f <= out.size(), "permutation writes past the output");
    std::memcpy(out_data + pos, wc + b * kWcLineKeys, f * sizeof(Key));
    cursor[b] = pos + f;
    fill[b] = 0;
  }
  // Streaming stores are weakly ordered; fence before the caller's next
  // read or inter-thread hand-off of the destination.
  _mm_sfence();
  return runs;
}
#endif  // __SSE2__

/// Super-digit width for the two-level scatter: sized so each level-2
/// chunk segment is ~64 KiB (measured sweet spot on the host sweep —
/// wider coarse digits win as n grows), clamped so level-1 staging stays
/// within kTwoLevelMaxCoarseBits lines and level 2 keeps at least one
/// fine bit.
int two_level_coarse_bits(std::size_t n, int radix_bits) {
  const std::size_t bytes = n * sizeof(Key);
  const int target =
      std::max(0, static_cast<int>(std::bit_width(bytes >> 16)) - 1);
  const int lo = std::max(1, radix_bits - kTwoLevelMaxCoarseBits);
  const int hi = std::min(kTwoLevelMaxCoarseBits, radix_bits - 1);
  return std::clamp(target, lo, hi);
}

/// Two-level staged scatter for bucket counts whose one-level staging
/// would overflow the cache (radix 16: 4 MiB of line buffers). Level 1
/// groups keys by *super-digit* (the high coarse_bits of the digit) into
/// a chunk buffer via WC staging — few write streams, so staging is tiny
/// and flushes stream. Level 2 scatters each super-bucket's chunk segment
/// to its final position — the fine buckets of one super-bucket span a
/// narrow destination window, so the live line and TLB set stays small.
/// Both levels preserve input order per bucket, so the composition equals
/// the reference's stable scatter byte-for-byte; `runs` is measured on
/// the original order during level 1.
std::uint64_t permute_two_level(std::span<const Key> in, std::span<Key> out,
                                int pass, int radix_bits,
                                std::span<std::uint64_t> cursor,
                                RadixWorkspace& ws) {
  const std::size_t n = in.size();
  const int coarse_bits = two_level_coarse_bits(n, radix_bits);
  const int fine_bits = radix_bits - coarse_bits;
  const std::size_t coarse_n = std::size_t{1} << coarse_bits;
  DSM_CHECK(ws.wc_keys.size() >= coarse_n * kWcLineKeys &&
                ws.wc_fill.size() >= coarse_n &&
                ws.wc_need.size() >= coarse_n,
            "two-level staging not prepared");
  if (ws.chunk.size() < n) ws.chunk.resize(n);
  if (ws.coarse.size() < coarse_n) ws.coarse.resize(coarse_n);
  const Key* const kin = in.data();
  // Super-digit counting sweep (coarse_n <= 1024 L1-resident counters),
  // then exclusive prefix into level-1 write cursors over the chunk.
  std::uint64_t* const ccur = ws.coarse.data();
  std::fill(ccur, ccur + coarse_n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++ccur[radix_digit(kin[i], pass, radix_bits) >> fine_bits];
  }
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < coarse_n; ++b) {
    const std::uint64_t c = ccur[b];
    ccur[b] = acc;
    acc += c;
  }
  // Level 1: write-combining scatter into the chunk by super-digit.
  Key* const ch = ws.chunk.data();
  Key* const wc = ws.wc_keys.data();
  std::uint32_t* const fill = ws.wc_fill.data();
  std::uint64_t runs = 0;
  std::uint32_t prev_digit = ~0u;
#if defined(__SSE2__)
  std::uint32_t* const need = ws.wc_need.data();
  for (std::size_t b = 0; b < coarse_n; ++b) {
    const auto addr = reinterpret_cast<std::uintptr_t>(ch + ccur[b]);
    const std::size_t off = (addr % 64u) / sizeof(Key);
    need[b] =
        static_cast<std::uint32_t>(off == 0 ? kWcLineKeys : kWcLineKeys - off);
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = kin[i];
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    runs += d != prev_digit ? 1 : 0;
    prev_digit = d;
    const std::uint32_t c = d >> fine_bits;
    std::uint32_t f = fill[c];
    wc[c * kWcLineKeys + f] = k;
    ++f;
#if defined(__SSE2__)
    if (f == need[c]) {
      Key* const dst = ch + ccur[c];
      const Key* const src = wc + c * kWcLineKeys;
      if (f == kWcLineKeys) {
        stream_line(dst, src);
      } else {
        std::memcpy(dst, src, f * sizeof(Key));
        need[c] = kWcLineKeys;
      }
      ccur[c] += f;
      f = 0;
    }
#else
    if (f == kWcLineKeys) {
      std::memcpy(ch + ccur[c], wc + c * kWcLineKeys,
                  kWcLineKeys * sizeof(Key));
      ccur[c] += kWcLineKeys;
      f = 0;
    }
#endif
    fill[c] = f;
  }
  for (std::size_t b = 0; b < coarse_n; ++b) {
    const std::uint32_t f = fill[b];
    if (f == 0) continue;
    std::memcpy(ch + ccur[b], wc + b * kWcLineKeys, f * sizeof(Key));
    ccur[b] += f;
    fill[b] = 0;
  }
#if defined(__SSE2__)
  // Chunk lines were streamed; fence before level 2 reads them back.
  _mm_sfence();
#endif
  // Level 2: in-order fine scatter per super-bucket. After the drain,
  // ccur[b] is the end of segment b, so segment starts chain from 0.
  Key* const out_data = out.data();
  std::uint64_t start = 0;
  for (std::size_t b = 0; b < coarse_n; ++b) {
    const std::uint64_t end = ccur[b];
    for (std::uint64_t i = start; i < end; ++i) {
      const Key k = ch[i];
      const std::uint32_t d = radix_digit(k, pass, radix_bits);
      const std::uint64_t pos = cursor[d]++;
      DSM_DCHECK(pos < out.size(), "permutation writes past the output");
      out_data[pos] = k;
    }
    start = end;
  }
  return runs;
}

/// Serial optimized permute: gate between contiguous copy, one-level WC
/// staging (streamed when DRAM-bound), the two-level scatter, and the
/// reference loop. Every path is stable and cursor-consuming.
std::uint64_t permute_optimized(std::span<const Key> in, std::span<Key> out,
                                int pass, int radix_bits,
                                std::span<std::uint64_t> cursor,
                                std::uint64_t active, RadixWorkspace& ws) {
  const std::size_t n = in.size();
  if (n == 0) return 0;
  if (active == 1) {
    // Every key carries the same digit (a dead pass, or a degenerate
    // distribution): the permutation is one contiguous copy.
    const std::uint32_t d = radix_digit(in[0], pass, radix_bits);
    const std::uint64_t pos = cursor[d];
    DSM_DCHECK(pos + n <= out.size(), "permutation writes past the output");
    std::memcpy(out.data() + pos, in.data(), n * sizeof(Key));
    cursor[d] = pos + n;
    return 1;
  }
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const bool dram_bound = n * sizeof(Key) >= kWcMinFootprintBytes;
  // When the whole pass footprint fits inside the staging budget (a
  // proxy for the cache the budget is sized against), the direct
  // scatter's live destination lines are cache-resident and every
  // staging variant is pure overhead (measured 0.75x at 64K x r11).
  const bool cache_resident = n * sizeof(Key) < kernel_staging_bytes();
  if (buckets * kWcLineKeys * sizeof(Key) <= kernel_staging_bytes()) {
    // Staging pays for itself once buckets' write streams overflow the
    // cache AND the average bucket fills at least one line (below that
    // the staging copy and drain are pure overhead on an L1-resident
    // scatter).
    const bool amortized = !cache_resident && n >= buckets * kWcLineKeys;
    if (dram_bound || (buckets >= kernel_wc_min_buckets() && amortized)) {
      ws.prepare_staging(radix_bits);
#if defined(__SSE2__)
      if (dram_bound) {
        return permute_wc_stream(in, out, pass, radix_bits, cursor, ws);
      }
#endif
      return permute_write_combined(in, out, pass, radix_bits, cursor, ws);
    }
    return permute_reference(in, out, pass, radix_bits, cursor);
  }
  // One-level staging would overflow the cache (large radix). The
  // two-level scatter pays once the footprint is well past the cache
  // (4x the staging budget — the default budget reproduces the 4 MiB
  // DRAM-bound threshold) and the average bucket is dense enough to
  // amortize the extra pass over the chunk; below that the direct
  // scatter's working set still mostly fits in cache and the extra
  // pass measured 0.86x at 256K x r16.
  if (n * sizeof(Key) >= 4 * kernel_staging_bytes() &&
      n >= buckets * kTwoLevelMinKeysPerBucket) {
    ws.prepare_staging(radix_bits);
    return permute_two_level(in, out, pass, radix_bits, cursor, ws);
  }
  return permute_reference(in, out, pass, radix_bits, cursor);
}

/// Threaded optimized permute: shard the key range, histogram each shard,
/// derive per-shard cursors from the stable-order prefix (shard t writes
/// bucket b after all earlier shards' bucket-b keys), then scatter the
/// shards concurrently — each through the full serial gate stack with its
/// own staging workspace. Stability of every serial path plus the prefix
/// split makes the output byte-identical to the serial permute for any
/// shard count; `runs` is stitched from per-shard counts by un-counting
/// shard boundaries that continue the previous shard's last digit.
std::uint64_t permute_threaded(std::span<const Key> in, std::span<Key> out,
                               int pass, int radix_bits,
                               std::span<std::uint64_t> cursor,
                               RadixWorkspace& ws, int shards) {
  const std::size_t n = in.size();
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const auto sc = static_cast<std::size_t>(shards);
  if (ws.shards.size() < sc) ws.shards.resize(sc);
  if (ws.shard_hist.size() < sc * buckets) ws.shard_hist.resize(sc * buckets);
  if (ws.shard_cursor.size() < sc * buckets) {
    ws.shard_cursor.resize(sc * buckets);
  }
  // Phase 1 (parallel): per-shard digit histograms.
  run_shards(shards, [&](int t) {
    const std::size_t b0 = shard_begin(n, shards, t);
    const std::size_t b1 = shard_begin(n, shards, t + 1);
    const std::span<std::uint64_t> h(
        ws.shard_hist.data() + static_cast<std::size_t>(t) * buckets,
        buckets);
    (void)histogram_kernel(KernelBackend::kOptimized,
                           in.subspan(b0, b1 - b0), pass, radix_bits, h);
  });
  // Serial: stable-order per-shard cursors, consuming the caller's.
  for (std::size_t b = 0; b < buckets; ++b) {
    std::uint64_t acc = cursor[b];
    for (std::size_t t = 0; t < sc; ++t) {
      ws.shard_cursor[t * buckets + b] = acc;
      acc += ws.shard_hist[t * buckets + b];
    }
    cursor[b] = acc;
  }
  // Phase 2 (parallel): independent stable scatters.
  std::vector<std::uint64_t> shard_runs(sc, 0);
  run_shards(shards, [&](int t) {
    const std::size_t b0 = shard_begin(n, shards, t);
    const std::size_t b1 = shard_begin(n, shards, t + 1);
    const auto ti = static_cast<std::size_t>(t);
    RadixWorkspace& sw = ws.shards[ti];
    sw.jobs = 1;
    const std::span<std::uint64_t> cur(
        ws.shard_cursor.data() + ti * buckets, buckets);
    const std::span<const std::uint64_t> h(
        ws.shard_hist.data() + ti * buckets, buckets);
    shard_runs[ti] = permute_optimized(in.subspan(b0, b1 - b0), out, pass,
                                       radix_bits, cur, count_active(h), sw);
  });
  // Stitch the measured run counts across shard boundaries.
  std::uint64_t runs = 0;
  std::uint32_t prev_digit = ~0u;
  for (int t = 0; t < shards; ++t) {
    const std::size_t b0 = shard_begin(n, shards, t);
    const std::size_t b1 = shard_begin(n, shards, t + 1);
    const std::uint32_t first = radix_digit(in[b0], pass, radix_bits);
    runs += shard_runs[static_cast<std::size_t>(t)] -
            (first == prev_digit ? 1 : 0);
    prev_digit = radix_digit(in[b1 - 1], pass, radix_bits);
  }
  return runs;
}

}  // namespace

std::uint64_t histogram_kernel(KernelBackend be, std::span<const Key> keys,
                               int pass, int radix_bits,
                               std::span<std::uint64_t> hist) {
  DSM_REQUIRE(hist.size() == std::size_t{1} << radix_bits,
              "histogram span size mismatch");
  std::fill(hist.begin(), hist.end(), 0);
#if defined(__AVX2__)
  if (be == KernelBackend::kOptimized && host_avx2()) {
    histogram_span_avx2(keys.data(), keys.size(), pass * radix_bits,
                        (std::uint32_t{1} << radix_bits) - 1u, hist.data());
    return count_active(hist);
  }
#else
  (void)be;
#endif
  for (const Key k : keys) ++hist[radix_digit(k, pass, radix_bits)];
  return count_active(hist);
}

std::uint64_t histogram_kernel(KernelBackend be, std::span<const Key> keys,
                               int pass, int radix_bits,
                               std::span<std::uint64_t> hist,
                               RadixWorkspace& ws) {
  const int shards = be == KernelBackend::kOptimized
                         ? effective_kernel_shards(ws.jobs, keys.size())
                         : 1;
  if (shards <= 1) {
    return histogram_kernel(be, keys, pass, radix_bits, hist);
  }
  DSM_REQUIRE(hist.size() == std::size_t{1} << radix_bits,
              "histogram span size mismatch");
  const std::size_t buckets = hist.size();
  const std::size_t n = keys.size();
  const auto sc = static_cast<std::size_t>(shards);
  if (ws.shard_hist.size() < sc * buckets) ws.shard_hist.resize(sc * buckets);
  run_shards(shards, [&](int t) {
    const std::size_t b0 = shard_begin(n, shards, t);
    const std::size_t b1 = shard_begin(n, shards, t + 1);
    const std::span<std::uint64_t> h(
        ws.shard_hist.data() + static_cast<std::size_t>(t) * buckets,
        buckets);
    (void)histogram_kernel(be, keys.subspan(b0, b1 - b0), pass, radix_bits,
                           h);
  });
  // Fixed shard-order sum: exactly the serial histogram.
  for (std::size_t b = 0; b < buckets; ++b) {
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < sc; ++t) {
      sum += ws.shard_hist[t * buckets + b];
    }
    hist[b] = sum;
  }
  return count_active(hist);
}

namespace {

/// Serial body of histogram_runs_kernel over one key span.
void histogram_runs_span(std::span<const Key> keys, int pass, int radix_bits,
                         std::uint64_t* hist, std::uint64_t* run_starts) {
  std::uint32_t prev_digit = ~0u;
  for (const Key k : keys) {
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    ++hist[d];
    run_starts[d] += d != prev_digit ? 1 : 0;
    prev_digit = d;
  }
}

}  // namespace

std::uint64_t histogram_runs_kernel(KernelBackend be,
                                    std::span<const Key> keys, int pass,
                                    int radix_bits,
                                    std::span<std::uint64_t> hist,
                                    std::span<std::uint64_t> run_starts,
                                    RadixWorkspace& ws) {
  const std::size_t buckets = std::size_t{1} << radix_bits;
  DSM_REQUIRE(hist.size() == buckets && run_starts.size() == buckets,
              "histogram span size mismatch");
  std::fill(hist.begin(), hist.end(), 0);
  std::fill(run_starts.begin(), run_starts.end(), 0);
  const int shards = be == KernelBackend::kOptimized
                         ? effective_kernel_shards(ws.jobs, keys.size())
                         : 1;
  if (shards <= 1) {
    histogram_runs_span(keys, pass, radix_bits, hist.data(),
                        run_starts.data());
    return count_active(hist);
  }
  // Threaded: per-shard [hist | run starts] rows summed in fixed shard
  // order; a shard whose first key continues the previous shard's last
  // digit counted one run start too many.
  const std::size_t n = keys.size();
  const auto sc = static_cast<std::size_t>(shards);
  if (ws.shard_hist.size() < sc * 2 * buckets) {
    ws.shard_hist.resize(sc * 2 * buckets);
  }
  run_shards(shards, [&](int t) {
    const std::size_t b0 = shard_begin(n, shards, t);
    const std::size_t b1 = shard_begin(n, shards, t + 1);
    std::uint64_t* const h =
        ws.shard_hist.data() + static_cast<std::size_t>(t) * 2 * buckets;
    std::fill(h, h + 2 * buckets, 0);
    histogram_runs_span(keys.subspan(b0, b1 - b0), pass, radix_bits, h,
                        h + buckets);
  });
  for (std::size_t t = 0; t < sc; ++t) {
    const std::uint64_t* const h = ws.shard_hist.data() + t * 2 * buckets;
    for (std::size_t b = 0; b < buckets; ++b) {
      hist[b] += h[b];
      run_starts[b] += h[buckets + b];
    }
    if (t > 0) {
      const std::size_t b0 = shard_begin(n, shards, static_cast<int>(t));
      const std::uint32_t d = radix_digit(keys[b0], pass, radix_bits);
      if (d == radix_digit(keys[b0 - 1], pass, radix_bits)) --run_starts[d];
    }
  }
  return count_active(hist);
}

void multi_histogram_kernel(KernelBackend be, std::span<const Key> keys,
                            int passes, int radix_bits,
                            std::span<std::uint64_t> pass_hist) {
  DSM_REQUIRE(passes >= 1, "need at least one pass");
  const std::size_t buckets = std::size_t{1} << radix_bits;
  DSM_REQUIRE(pass_hist.size() >= static_cast<std::size_t>(passes) * buckets,
              "pass_hist too small");
  if (be == KernelBackend::kReference) {
    for (int p = 0; p < passes; ++p) {
      (void)histogram_kernel(be, keys, p, radix_bits,
                             pass_hist.subspan(
                                 static_cast<std::size_t>(p) * buckets,
                                 buckets));
    }
    return;
  }
  std::fill(pass_hist.begin(),
            pass_hist.begin() +
                static_cast<std::ptrdiff_t>(
                    static_cast<std::size_t>(passes) * buckets),
            0);
  std::uint64_t* const h = pass_hist.data();
  const auto mask = (std::uint32_t{1} << radix_bits) - 1u;
  switch (passes) {
    case 2:
      for (const Key k : keys) {
        ++h[k & mask];
        ++h[buckets + ((k >> radix_bits) & mask)];
      }
      return;
    case 3:
      for (const Key k : keys) {
        ++h[k & mask];
        ++h[buckets + ((k >> radix_bits) & mask)];
        ++h[2 * buckets + ((k >> (2 * radix_bits)) & mask)];
      }
      return;
    case 4:
      for (const Key k : keys) {
        ++h[k & mask];
        ++h[buckets + ((k >> radix_bits) & mask)];
        ++h[2 * buckets + ((k >> (2 * radix_bits)) & mask)];
        ++h[3 * buckets + ((k >> (3 * radix_bits)) & mask)];
      }
      return;
    default:
      for (const Key k : keys) {
        std::uint32_t v = k;
        for (int p = 0; p < passes; ++p) {
          ++h[static_cast<std::size_t>(p) * buckets + (v & mask)];
          v >>= radix_bits;
        }
      }
      return;
  }
}

void multi_histogram_kernel(KernelBackend be, std::span<const Key> keys,
                            int passes, int radix_bits,
                            std::span<std::uint64_t> pass_hist,
                            RadixWorkspace& ws) {
  const int shards = be == KernelBackend::kOptimized
                         ? effective_kernel_shards(ws.jobs, keys.size())
                         : 1;
  if (shards <= 1) {
    multi_histogram_kernel(be, keys, passes, radix_bits, pass_hist);
    return;
  }
  DSM_REQUIRE(passes >= 1, "need at least one pass");
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const std::size_t rows = static_cast<std::size_t>(passes) * buckets;
  DSM_REQUIRE(pass_hist.size() >= rows, "pass_hist too small");
  const std::size_t n = keys.size();
  const auto sc = static_cast<std::size_t>(shards);
  if (ws.shards.size() < sc) ws.shards.resize(sc);
  run_shards(shards, [&](int t) {
    const std::size_t b0 = shard_begin(n, shards, t);
    const std::size_t b1 = shard_begin(n, shards, t + 1);
    RadixWorkspace& sw = ws.shards[static_cast<std::size_t>(t)];
    sw.jobs = 1;
    if (sw.pass_hist.size() < rows) sw.pass_hist.resize(rows);
    multi_histogram_kernel(be, keys.subspan(b0, b1 - b0), passes, radix_bits,
                           std::span<std::uint64_t>(sw.pass_hist.data(),
                                                    rows));
  });
  // Fixed shard-order sum: exactly the serial table.
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < sc; ++t) sum += ws.shards[t].pass_hist[r];
    pass_hist[r] = sum;
  }
}

std::uint64_t permute_kernel(KernelBackend be, std::span<const Key> in,
                             std::span<Key> out, int pass, int radix_bits,
                             std::span<std::uint64_t> cursor,
                             std::uint64_t active, RadixWorkspace& ws) {
  const std::size_t buckets = std::size_t{1} << radix_bits;
  DSM_REQUIRE(cursor.size() == buckets, "cursor span size mismatch");
  if (be == KernelBackend::kReference) {
    return permute_reference(in, out, pass, radix_bits, cursor);
  }
  const std::size_t n = in.size();
  if (n == 0) return 0;
  if (active > 1) {
    const int shards = effective_kernel_shards(ws.jobs, n);
    if (shards > 1) {
      return permute_threaded(in, out, pass, radix_bits, cursor, ws, shards);
    }
  }
  return permute_optimized(in, out, pass, radix_bits, cursor, active, ws);
}

void exchange_copy(KernelBackend be, Key* dst, const Key* src,
                   std::size_t n, std::size_t footprint_bytes) {
  if (n == 0) return;
#if defined(__SSE2__)
  if (be == KernelBackend::kOptimized &&
      footprint_bytes >= kWcMinFootprintBytes &&
      n * sizeof(Key) >= kStreamCopyMinBytes) {
    // Peel to the destination's next 64-byte boundary, stream full lines
    // past the cache (the destination is write-only until the next
    // phase), and finish the tail with ordinary stores.
    const auto addr = reinterpret_cast<std::uintptr_t>(dst);
    const std::size_t mis = addr % 64u;
    std::size_t i = 0;
    if (mis != 0) {
      i = (64u - mis) / sizeof(Key);
      std::memcpy(dst, src, i * sizeof(Key));
    }
    for (; i + kWcLineKeys <= n; i += kWcLineKeys) {
      stream_line(dst + i, src + i);
    }
    _mm_sfence();
    if (i < n) std::memcpy(dst + i, src + i, (n - i) * sizeof(Key));
    return;
  }
#else
  (void)be;
  (void)footprint_bytes;
#endif
  std::memcpy(dst, src, n * sizeof(Key));
}

void payload_mirror_scatter(std::span<const Key> keys,
                            std::span<const keys::Payload> pay_in,
                            std::span<keys::Payload> pay_out, int pass,
                            int radix_bits, std::span<std::uint64_t> cursor) {
  DSM_REQUIRE(keys.size() == pay_in.size(), "payload lane size mismatch");
  DSM_REQUIRE(cursor.size() == std::size_t{1} << radix_bits,
              "cursor span size mismatch");
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = radix_digit(keys[i], pass, radix_bits);
    const std::uint64_t pos = cursor[d]++;
    DSM_DCHECK(pos < pay_out.size(), "payload scatter past the output");
    pay_out[pos] = pay_in[i];
  }
}

void stable_payload_mirror(std::span<const Key> keys,
                           std::span<keys::Payload> pays, RadixWorkspace& ws) {
  DSM_REQUIRE(pays.size() == keys.size(),
              "payload lane must match the key span");
  const std::size_t n = keys.size();
  const std::span<keys::KeyPayload32> recs = scratch_span(ws.pair_recs, n);
  const std::span<keys::KeyPayload32> rtmp = scratch_span(ws.pair_tmp, n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i] = {keys[i], pays[i]};
  }
  keys::record_lsd_sort<keys::RecordTraits<keys::KeyPayload32>>(recs, rtmp,
                                                                11);
  for (std::size_t i = 0; i < n; ++i) {
    pays[i] = recs[i].payload;
  }
}

}  // namespace dsm::sort
